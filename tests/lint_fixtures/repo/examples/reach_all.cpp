// Fixture: the test-only-module root. It reaches every fixture header
// except net/unreached.h (the planted finding) and the two exempt test
// tools, so no other fixture header is reported by that rule.
#include "core/bad_first.h"
#include "core/bad_first_suppressed.h"
#include "core/bad_guard.h"
#include "core/bad_guard_suppressed.h"
#include "core/bad_lock.h"
#include "core/bad_migration.h"
#include "core/page_memory.h"
#include "core/pcb_slab.h"
#include "core/prefetch.h"
#include "core/simd.h"
#include "core/thread_annotations.h"
#include "net/byte_order.h"
#include "net/crc32c.h"
#include "sim/rng.h"

int main() { return 0; }
