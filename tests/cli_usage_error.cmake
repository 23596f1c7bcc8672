# Runs the CLI and requires a usage error: exit status 2 and a stderr
# line matching EXPECT. Invoked by ctest as
#   cmake -DCLI=<autocomp_cli> "-DARGS=a;b;c" -DEXPECT=<regex> -P cli_usage_error.cmake
execute_process(COMMAND ${CLI} ${ARGS}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status EQUAL 2)
  message(FATAL_ERROR "expected exit status 2, got ${status}\n${out}${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "stderr does not match '${EXPECT}':\n${err}")
endif()
