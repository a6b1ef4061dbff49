# Runs EXE twice and fails unless both runs exit 0 and print byte-identical
# stdout. Usage: cmake -DEXE=<binary> -DOUT=<file prefix> -P run_twice.cmake
foreach(run 1 2)
  execute_process(COMMAND ${EXE} OUTPUT_FILE ${OUT}${run}.txt
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "run ${run} of ${EXE} exited with ${rc}")
  endif()
endforeach()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT}1.txt
                        ${OUT}2.txt
                RESULT_VARIABLE differ)
if(NOT differ EQUAL 0)
  message(FATAL_ERROR "${EXE}: ${OUT}1.txt and ${OUT}2.txt differ")
endif()
