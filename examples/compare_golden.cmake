# Runs EXE once (with the optional list ARGS) and fails unless it exits 0
# and prints exactly the bytes of GOLDEN, so any drift in plans, LPCs or
# bills fails the suite.
# Usage: cmake -DEXE=<binary> [-DARGS=<a;b>] -DGOLDEN=<file> -DOUT=<file>
#              -P compare_golden.cmake
execute_process(COMMAND ${EXE} ${ARGS} OUTPUT_FILE ${OUT} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXE} exited with ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
                RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  message(FATAL_ERROR "${EXE}: ${OUT} differs from ${GOLDEN}")
endif()
