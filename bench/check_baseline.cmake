# Run one tracked bench emitter and diff the "structural" section of its JSON
# against the committed baseline (tools/compare_bench.py).  Registered as a
# ctest test per emitter by bench/CMakeLists.txt:
#
#   cmake -DBENCH=<binary> -DBASELINE=<baseline.json> -DOUT=<fresh.json>
#         -DPYTHON=<python3> -DCOMPARE=<compare_bench.py> [-DARGS=<a;b>]
#         -P check_baseline.cmake
#
# Without -DCOMPARE the emitter is a plain-text table: its stdout, written to
# OUT, must match BASELINE byte for byte.
if(NOT COMPARE)
  execute_process(COMMAND ${BENCH} OUTPUT_FILE ${OUT} RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} failed (exit ${rc})")
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${BASELINE} ${OUT}
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${OUT} differs from ${BASELINE}")
  endif()
  return()
endif()
execute_process(COMMAND ${BENCH} --json ${OUT} ${ARGS} RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} failed its own self-check (exit ${rc})")
endif()
execute_process(COMMAND ${PYTHON} ${COMPARE} ${BASELINE} ${OUT}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${OUT} drifts from ${BASELINE}")
endif()
