# Run simctl once and check how it exits: cmake -P check_cli.cmake
#   -DSIMCTL=<binary> -DARGS=<space-separated arguments>
#   -DEXIT=<expected status> -DEXPECT=<text>
# EXPECT must appear verbatim on stdout when EXIT is 0 and on stderr
# otherwise. The simctl_* tests in CMakeLists.txt use it.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${SIMCTL}" ${args}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE stdout
                ERROR_VARIABLE stderr)
if(NOT status STREQUAL EXIT)
    message(FATAL_ERROR "simctl ${ARGS}: exit ${status}, want ${EXIT}\n"
                        "stdout:\n${stdout}\nstderr:\n${stderr}")
endif()
if(EXIT EQUAL 0)
    set(text "${stdout}")
else()
    set(text "${stderr}")
endif()
string(FIND "${text}" "${EXPECT}" pos)
if(pos EQUAL -1)
    message(FATAL_ERROR "simctl ${ARGS}: missing \"${EXPECT}\" in:\n"
                        "${text}")
endif()
