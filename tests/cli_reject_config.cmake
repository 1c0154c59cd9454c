# One case of the config-rejection contract registered in CMakeLists.txt:
#   cmake -DRDSIM=<rdsim> -DEXPERIMENT=<name> -DCONFIG=<file> -DKEY=<key> \
#         -P tests/cli_reject_config.cmake
# Passes only if `rdsim --experiment EXPERIMENT --config CONFIG` exits
# non-zero and names KEY on stderr.
execute_process(
  COMMAND ${RDSIM} --experiment ${EXPERIMENT} --config ${CONFIG} --no-file
  RESULT_VARIABLE status
  OUTPUT_QUIET
  ERROR_VARIABLE diagnostics)
if(status EQUAL 0)
  message(FATAL_ERROR "rdsim accepted the bad config ${CONFIG}")
endif()
string(FIND "${diagnostics}" "${KEY}" at)
if(at EQUAL -1)
  message(FATAL_ERROR
    "rdsim rejected ${CONFIG} (${status}) without naming ${KEY}:\n"
    "${diagnostics}")
endif()
