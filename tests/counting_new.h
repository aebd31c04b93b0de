// Replaces the global operator new and delete with malloc and free, and
// counts the operator new calls made while `count_news` is set, so a test
// can bound the allocations of one scope. It defines the replacement
// functions, so include it from one source file per test binary.

#ifndef MYRAFT_TESTS_COUNTING_NEW_H_
#define MYRAFT_TESTS_COUNTING_NEW_H_

#include <cstddef>
#include <cstdlib>
#include <new>

namespace myraft {

inline bool count_news = false;
inline size_t news_counted = 0;

}  // namespace myraft

void* operator new(size_t size) {
  if (myraft::count_news) ++myraft::news_counted;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// The nothrow form too (std::stable_sort's temporary buffer uses it), so
// every block the replaced deletes free came from malloc.
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  if (myraft::count_news) ++myraft::news_counted;
  return std::malloc(size == 0 ? 1 : size);
}
// Not inlined: GCC would otherwise see free() of a new-expression's block
// at every delete-expression and warn (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, size_t) noexcept {
  std::free(p);
}

#endif  // MYRAFT_TESTS_COUNTING_NEW_H_
