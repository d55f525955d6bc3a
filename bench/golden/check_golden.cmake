# Runs BINARY (with the space-separated ARGS, when given) and fails unless
# it exits 0 and its stdout equals the file GOLDEN byte for byte. On a
# mismatch the stdout is written to ACTUAL, so `diff GOLDEN ACTUAL` shows
# what moved.
#
#   cmake -DBINARY=... [-DARGS="--threads 4"] -DGOLDEN=... -DACTUAL=... \
#         -P check_golden.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${BINARY}" ${args}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BINARY} ${ARGS} exited with ${status}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  file(WRITE "${ACTUAL}" "${actual}")
  message(FATAL_ERROR "stdout of ${BINARY} ${ARGS} differs from ${GOLDEN}; "
                      "see diff ${GOLDEN} ${ACTUAL}")
endif()
