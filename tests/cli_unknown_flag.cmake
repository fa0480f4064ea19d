# ctest driver: `speedqm_tool SUBCOMMAND --FLAG` must exit 64 (EX_USAGE)
# and name the rejected flag on stderr.
#   cmake -DTOOL=<speedqm_tool> -DSUBCOMMAND=serve -DFLAG=async -P cli_unknown_flag.cmake
execute_process(COMMAND ${TOOL} ${SUBCOMMAND} --${FLAG}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 64)
  message(FATAL_ERROR "${SUBCOMMAND} --${FLAG}: expected exit 64, got ${rc}")
endif()
if(NOT err MATCHES "--${FLAG}")
  message(FATAL_ERROR "${SUBCOMMAND} --${FLAG}: stderr does not name the flag: ${err}")
endif()
