# Warning configuration for the whole tree.
#
# Base warnings apply to every target with directory scope. -Werror is
# promoted per-directory (src/, tests/, bench/, tools/ and examples/)
# through swope_enable_werror(), gated on the SWOPE_WERROR cache option
# so a newer compiler with novel diagnostics never hard-blocks a build:
#
#   cmake -B build -S . -DSWOPE_WERROR=OFF

option(SWOPE_WERROR
       "Treat warnings as errors in src/, tests/, bench/, tools/ and examples/"
       ON)

include(CheckCXXCompilerFlag)

function(swope_enable_warnings)
  add_compile_options(-Wall -Wextra -Wshadow -Wconversion)

  if(CMAKE_CXX_COMPILER_ID STREQUAL "GNU" AND
     CMAKE_CXX_COMPILER_VERSION VERSION_LESS 13)
    # GCC 12 emits bogus -Wrestrict warnings for std::string concatenation
    # inlined from libstdc++ headers (GCC PR105329); silence just that
    # diagnostic so -Werror stays viable.
    add_compile_options(-Wno-restrict)
  endif()

  # Clang's thread-safety analysis checks the GUARDED_BY/REQUIRES/ACQUIRE
  # annotations from src/common/thread_annotations.h against the
  # swope::Mutex capability (src/common/mutex.h); GCC ignores both the
  # flags and the attributes. The full set is on — -beta for the newest
  # checks and -negative so REQUIRES(!mu) contracts catch double-locking
  # (tests/compile_fail/double_lock.cc proves it). With SWOPE_WERROR (the
  # default, and what CI's clang job builds with) any violation is a
  # build break.
  check_cxx_compiler_flag(-Wthread-safety SWOPE_HAVE_WTHREAD_SAFETY)
  if(SWOPE_HAVE_WTHREAD_SAFETY)
    add_compile_options(-Wthread-safety)
    check_cxx_compiler_flag(-Wthread-safety-beta SWOPE_HAVE_WTHREAD_SAFETY_BETA)
    if(SWOPE_HAVE_WTHREAD_SAFETY_BETA)
      add_compile_options(-Wthread-safety-beta)
    endif()
    check_cxx_compiler_flag(-Wthread-safety-negative
                            SWOPE_HAVE_WTHREAD_SAFETY_NEGATIVE)
    if(SWOPE_HAVE_WTHREAD_SAFETY_NEGATIVE)
      add_compile_options(-Wthread-safety-negative)
    endif()
  endif()
endfunction()

# Call from a directory whose targets should fail on warnings.
function(swope_enable_werror)
  if(SWOPE_WERROR)
    add_compile_options(-Werror)
  endif()
endfunction()
