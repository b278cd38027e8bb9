# Runs one paper bench and compares its stdout byte for byte with a committed golden
# file; on a difference it prints a unified diff and fails. Simulated results are
# deterministic (DESIGN.md §2b), so any difference is a change in simulated
# behaviour or cycle charges. A change that moves them on purpose regenerates the
# file in the same commit: ./bench_<name> > bench/golden/bench_<name>.txt
#
# cmake -DBENCH=<binary> -DGOLDEN=<golden file> -DOUT=<output file> -P golden_check.cmake
execute_process(COMMAND ${BENCH} OUTPUT_FILE ${OUT} RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with status ${status}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${OUT}
                RESULT_VARIABLE differs)
if(differs)
  find_program(DIFF diff)
  if(DIFF)
    execute_process(COMMAND ${DIFF} -u ${GOLDEN} ${OUT})
  endif()
  message(FATAL_ERROR "output of ${BENCH} differs from ${GOLDEN}")
endif()
