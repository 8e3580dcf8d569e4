// Clang thread-safety annotation macros.
//
// Under Clang with -Wthread-safety these expand to attributes that let the
// compiler prove lock discipline statically (which mutex guards which
// member, which methods must or must not hold it). Under GCC and other
// compilers they expand to nothing, so annotated code stays portable.
//
// Naming follows the standard Clang/abseil vocabulary so the annotations
// read the same here as in the upstream documentation.

#ifndef SWOPE_COMMON_THREAD_ANNOTATIONS_H_
#define SWOPE_COMMON_THREAD_ANNOTATIONS_H_

#if defined(__clang__) && defined(__has_attribute)
#define SWOPE_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define SWOPE_THREAD_ANNOTATION__(x)
#endif

// Documents that a type is a lock ("capability") the analysis can track.
#define CAPABILITY(x) SWOPE_THREAD_ANNOTATION__(capability(x))
#define SCOPED_CAPABILITY SWOPE_THREAD_ANNOTATION__(scoped_lockable)

// Documents that a member is protected by the given mutex.
#define GUARDED_BY(x) SWOPE_THREAD_ANNOTATION__(guarded_by(x))
#define PT_GUARDED_BY(x) SWOPE_THREAD_ANNOTATION__(pt_guarded_by(x))

// Documents that a function must be called with the mutex held...
#define REQUIRES(...) \
  SWOPE_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))
// ...or must NOT be called with it held (it acquires the mutex itself).
#define EXCLUDES(...) SWOPE_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))

// Documents that a function acquires/releases the mutex and does not
// release/reacquire it before returning.
#define ACQUIRE(...) \
  SWOPE_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))
#define RELEASE(...) \
  SWOPE_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))

// Documents that a function attempts the acquisition and reports success
// as the given boolean return value.
#define TRY_ACQUIRE(...) \
  SWOPE_THREAD_ANNOTATION__(try_acquire_capability(__VA_ARGS__))

// Documents that a function returns a reference to the given mutex, so
// locking the result counts as locking that member.
#define RETURN_CAPABILITY(x) SWOPE_THREAD_ANNOTATION__(lock_returned(x))

// Escape hatch for functions the analysis cannot model.
#define NO_THREAD_SAFETY_ANALYSIS \
  SWOPE_THREAD_ANNOTATION__(no_thread_safety_analysis)

#endif  // SWOPE_COMMON_THREAD_ANNOTATIONS_H_
