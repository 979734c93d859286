# The gbt350 survey (6 observations, seed 3) end to end: the local backend's
# ML file is pinned by digest, and every worker-pool lane must write the same
# bytes — a clean pool, a worker killed mid-search, one killed mid-load (the
# chain-head send path) and one killed mid-partition (the shuffle's map side,
# whose replacement reruns the lost source tasks and assembles its targets
# from the shuffle files). A changed digest means the output changed, not
# that the digest is stale.
#
#   cmake -DDRAPID=<drapid binary> -DWORK=<scratch dir> -DPOOLED=0|1 -P <this file>
#
# POOLED=0 (thread-sanitizer builds, where the engine cannot fork workers)
# skips the case.
if(NOT POOLED)
  message("skipped: this build runs no worker pool")
  return()
endif()

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")

function(drapid_run)
  execute_process(COMMAND "${DRAPID}" ${ARGN} WORKING_DIRECTORY "${WORK}"
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "drapid ${ARGN} failed (${rc}): ${err}")
  endif()
endfunction()

drapid_run(simulate --survey gbt350 --observations 6 --seed 3 --out .)
set(search search --data data.csv --clusters clusters.csv)
drapid_run(${search} --out ml_local.csv --backend local)
# Recorded when the local, pooled, fork-per-stage and pooled-with-kill runs
# all wrote these bytes; a changed digest means the output changed.
file(SHA256 "${WORK}/ml_local.csv" actual)
set(pinned f13c4758ccfa29d0b844298296f063cc198a6d7fe516238601a1245444448764)
if(NOT actual STREQUAL pinned)
  message(FATAL_ERROR "ml_local.csv: sha256 ${actual}, pinned ${pinned}")
endif()

foreach(lane pool search:2 load:data:1 partition:data:2)
  set(pool_args --backend process --workers 4)
  if(NOT lane STREQUAL "pool")
    list(APPEND pool_args --kill-worker ${lane})
  endif()
  string(REPLACE ":" "_" out "ml_${lane}.csv")
  drapid_run(${search} --out ${out} ${pool_args})
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${WORK}/ml_local.csv" "${WORK}/${out}"
                  RESULT_VARIABLE differ)
  if(NOT differ EQUAL 0)
    message(FATAL_ERROR "lane ${lane}: ${out} differs from ml_local.csv")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK}")
