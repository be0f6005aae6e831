# Run a command-line program once and check how it exits:
#   cmake -P check_cli.cmake -DPROG=<binary>
#   -DARGS=<space-separated arguments>
#   -DEXIT=<expected status> -DEXPECT=<text>
# EXPECT must appear verbatim on stdout when EXIT is 0 and on stderr
# otherwise. The simctl_*, quickstart_*, compare_systems_* and
# custom_model_* tests in CMakeLists.txt and the fault_path_* tests in
# bench/CMakeLists.txt use it.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROG}" ${args}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE stdout
                ERROR_VARIABLE stderr)
if(NOT status STREQUAL EXIT)
    message(FATAL_ERROR "${PROG} ${ARGS}: exit ${status}, want ${EXIT}\n"
                        "stdout:\n${stdout}\nstderr:\n${stderr}")
endif()
if(EXIT EQUAL 0)
    set(text "${stdout}")
else()
    set(text "${stderr}")
endif()
string(FIND "${text}" "${EXPECT}" pos)
if(pos EQUAL -1)
    message(FATAL_ERROR "${PROG} ${ARGS}: missing \"${EXPECT}\" in:\n"
                        "${text}")
endif()
