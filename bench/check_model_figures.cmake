# Regenerates the model-only figures (Figures 8-13) and compares their
# concatenated stdout byte for byte with results/model_figures.txt, so
# a change that moves a modelled number shows in its own diff.
#
#   cmake -DBENCH_DIR=<build>/bench -DEXPECTED=results/model_figures.txt \
#         -P bench/check_model_figures.cmake
#
# On a mismatch the fresh output is left in model_figures.actual.txt
# in the working directory. To accept a deliberate change, rerun the
# six binaries in order and commit their output:
#
#   for f in fig8_overhead_hitrate fig9_overhead_filesize \
#            fig10_rmw_hitrate fig11_rmw_filesize \
#            fig12_future_hitrate fig13_future_filesize; do
#       build/bench/$f; done > results/model_figures.txt
cmake_minimum_required(VERSION 3.16)

set(actual "")
foreach(fig fig8_overhead_hitrate fig9_overhead_filesize
            fig10_rmw_hitrate fig11_rmw_filesize
            fig12_future_hitrate fig13_future_filesize)
    execute_process(COMMAND ${BENCH_DIR}/${fig}
                    OUTPUT_VARIABLE out RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${fig} failed: ${rc}")
    endif()
    string(APPEND actual "${out}")
endforeach()

file(READ ${EXPECTED} expected)
if(NOT actual STREQUAL expected)
    file(WRITE model_figures.actual.txt "${actual}")
    message(FATAL_ERROR "model figures differ from ${EXPECTED}; "
                        "diff it against model_figures.actual.txt")
endif()
