# Fails if the reference-kernel library defines or references any symbol
# of the simulator (namespace sriov). Run: cmake -DNM=nm -DLIB=<lib> -P <this>
execute_process(COMMAND ${NM} -C ${LIB}
                OUTPUT_VARIABLE syms RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "nm failed on ${LIB}")
endif()
string(REGEX MATCHALL "[^\n]*sriov::[^\n]*" hits "${syms}")
if(hits)
    message(FATAL_ERROR "reference kernel names simulator symbols:\n${hits}")
endif()
string(FIND "${syms}" "perfbench::runReferenceKernel" found)
if(found EQUAL -1)
    message(FATAL_ERROR "runReferenceKernel not found in ${LIB}")
endif()
message(STATUS "reference kernel names no simulator symbol")
