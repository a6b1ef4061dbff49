# Runs market_bench (EXE) once per workload in WORKLOADS, in smoke size
# with tracing on, and fails unless every run exits 0.
# Usage: cmake -DEXE=<market_bench> -DWORKLOADS=<w1;w2> -P perfbench_smoke.cmake
foreach(workload IN LISTS WORKLOADS)
  execute_process(COMMAND ${EXE} --smoke --workload ${workload} --seed 1
                          --seconds 0.1 --trace 1
                  OUTPUT_QUIET RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "market_bench ${workload} exited with ${rc}")
  endif()
endforeach()
