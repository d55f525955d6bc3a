# Runs BINARY and fails unless it exits 0 and its stdout equals the file
# GOLDEN byte for byte. On a mismatch the stdout is written to ACTUAL, so
# `diff GOLDEN ACTUAL` shows what moved.
#
#   cmake -DBINARY=... -DGOLDEN=... -DACTUAL=... -P check_golden.cmake
execute_process(COMMAND "${BINARY}"
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BINARY} exited with ${status}")
endif()
file(READ "${GOLDEN}" expected)
if(NOT actual STREQUAL expected)
  file(WRITE "${ACTUAL}" "${actual}")
  message(FATAL_ERROR "stdout of ${BINARY} differs from ${GOLDEN}; "
                      "see diff ${GOLDEN} ${ACTUAL}")
endif()
