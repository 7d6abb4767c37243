# Hooks the benchmark into the repository's own CMake tree.
#
# run.py configures the repository root with
#   -DCMAKE_PROJECT_dwatch_INCLUDE=<this file>
# so the library targets are built exactly as the repository builds
# them. The hook runs inside project(dwatch), before any target exists;
# the deferred include of CMakeLists.txt in this directory runs once the
# top-level CMakeLists.txt has finished.
set(PERFBENCH_SOURCE_DIR ${CMAKE_CURRENT_LIST_DIR})
cmake_language(DEFER CALL include ${PERFBENCH_SOURCE_DIR}/CMakeLists.txt)
