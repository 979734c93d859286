# `drapid search --executors 0` must fail cleanly: an "error: ..." line and
# exit status 1, not a crash on a partitioner with no partitions.
#
#   cmake -DDRAPID=<drapid binary> -DWORK=<scratch dir> -P <this file>
file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
execute_process(
  COMMAND "${DRAPID}" simulate --survey gbt350 --observations 2 --seed 3
          --out "${WORK}"
  RESULT_VARIABLE rc OUTPUT_QUIET)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "drapid simulate failed: ${rc}")
endif()
execute_process(
  COMMAND "${DRAPID}" search --data "${WORK}/data.csv"
          --clusters "${WORK}/clusters.csv" --out "${WORK}/ml.csv"
          --executors 0
  RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
file(REMOVE_RECURSE "${WORK}")
if(NOT rc STREQUAL "1" OR NOT err MATCHES "^error: ")
  message(FATAL_ERROR "expected exit 1 with an error line, got '${rc}': ${err}")
endif()
