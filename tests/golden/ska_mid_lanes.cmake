# The dirty ska_mid survey (4 observations, seed 9) end to end: the
# simulated SPE and cluster files and the local backend's ML file are pinned
# by digest, and every worker-pool lane must write the same ML bytes — a
# clean pool, a worker killed mid-search, and one killed mid-shuffle (its
# wide targets are rebuilt from lineage). A changed digest means the output
# changed, not that the digest is stale.
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

function(expect_digest name expected)
  file(SHA256 "${WORK}/${name}" actual)
  if(NOT actual STREQUAL expected)
    message(FATAL_ERROR "${name}: sha256 ${actual}, pinned ${expected}")
  endif()
endfunction()

drapid_run(simulate --survey ska_mid --observations 4 --seed 9 --out .)
set(search search --data data.csv --clusters clusters.csv --survey ska_mid)
drapid_run(${search} --out ml_local.csv --backend local)
expect_digest(data.csv
  01e28a72254638f0e6cf27b0faca2dcef5932c49819ea640684c198e94d32789)
expect_digest(clusters.csv
  8da783a7b11707ea91870edb8364ce77dec72bb324ffce09889a858a6717faa4)
expect_digest(ml_local.csv
  acd634b3c0937c571cf35e4aeb781f0dcca6ad07137c875f0f58f97a7033ca48)

foreach(lane pool search:1 partition:data:1)
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
