# One case of the thread-count determinism contract registered in
# CMakeLists.txt:
#   cmake -DRDSIM=<rdsim> -DARGS="<rdsim args>" -DOUT_DIR=<dir> \
#         -P tests/cli_same_output.cmake
# Runs `rdsim ARGS --threads 1` and `rdsim ARGS --threads 8`, each writing
# its CSV under OUT_DIR, and passes only if both exit 0 with byte-identical
# files.
separate_arguments(args UNIX_COMMAND "${ARGS}")
foreach(threads 1 8)
  execute_process(
    COMMAND ${RDSIM} ${args} --threads ${threads} --csv ${OUT_DIR}/t${threads}.csv
    RESULT_VARIABLE status
    OUTPUT_QUIET
    ERROR_VARIABLE diagnostics)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR
      "rdsim ${ARGS} --threads ${threads} failed (${status}):\n${diagnostics}")
  endif()
endforeach()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT_DIR}/t1.csv ${OUT_DIR}/t8.csv
  RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  message(FATAL_ERROR
    "rdsim ${ARGS}: --threads 1 and --threads 8 wrote different CSVs "
    "(${OUT_DIR}/t1.csv, ${OUT_DIR}/t8.csv)")
endif()
