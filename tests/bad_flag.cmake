# Runs BIN with the one malformed argument ARG and passes when BIN
# exits 2, names FLAG on stderr and writes nothing on stdout.
#   cmake -DBIN=path -DARG=--flag=bad -DFLAG=--flag -P bad_flag.cmake
execute_process(COMMAND "${BIN}" "${ARG}"
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "${BIN} ${ARG}: exit ${rc}, expected 2\n${err}")
endif()
string(FIND "${err}" "${FLAG}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${BIN} ${ARG}: stderr does not name ${FLAG}:\n"
                      "${err}")
endif()
if(NOT out STREQUAL "")
  message(FATAL_ERROR "${BIN} ${ARG}: wrote to stdout:\n${out}")
endif()
