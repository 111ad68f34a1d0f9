#pragma once

#include <cstdint>

namespace perfbench {

// Sanitizers interpose their own allocator, so counts taken under them are
// not the program's; perfbench refuses to run in such a build.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
inline constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
inline constexpr bool kSanitized = true;
#else
inline constexpr bool kSanitized = false;
#endif
#else
inline constexpr bool kSanitized = false;
#endif

/// Heap allocations (global operator new calls) made so far by the calling
/// thread. The counting operator new lives only in this binary.
std::uint64_t thread_allocations();

}  // namespace perfbench
