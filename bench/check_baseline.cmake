# Run one tracked bench emitter and diff the "structural" section of its JSON
# against the committed baseline (tools/compare_bench.py).  Registered as a
# ctest test per emitter by bench/CMakeLists.txt:
#
#   cmake -DBENCH=<binary> -DBASELINE=<baseline.json> -DOUT=<fresh.json>
#         [-DPYTHON=<python3> -DCOMPARE=<compare_bench.py>] [-DARGS=<a;b>]
#         -P check_baseline.cmake
#
# Without -DCOMPARE the emitter's output must match BASELINE byte for byte:
# its stdout, written to OUT, or -- when ARGS is given -- the file the command
# `BENCH ARGS OUT` writes (ARGS ends with the option that takes the path).
if(NOT COMPARE)
  if(ARGS)
    execute_process(COMMAND ${BENCH} ${ARGS} ${OUT} OUTPUT_QUIET
                    RESULT_VARIABLE rc)
  else()
    execute_process(COMMAND ${BENCH} OUTPUT_FILE ${OUT} RESULT_VARIABLE rc)
  endif()
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
