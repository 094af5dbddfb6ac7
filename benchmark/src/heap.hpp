#pragma once

// Heap bytes the program holds, counted by the benchmark's replacement of
// the global operator new / delete (heap.cpp). Every allocation counts
// malloc's usable size for it, so the counts depend only on the sequence of
// allocations the program makes: unlike the process's resident set, they do
// not move with huge pages, the page cache or the libraries the host maps.
// The benchmark process is single-threaded, so the counters are plain.

#include <cstddef>

namespace bench::heap {

/// Starts a new peak from the bytes live now, and returns them.
std::size_t reset_peak();
/// The most bytes live at once since the last reset_peak().
std::size_t peak_bytes();

}  // namespace bench::heap
