#include "alloc_count.h"

namespace rxbench {

bool alloc_counting() noexcept { return false; }

AllocCount alloc_count() noexcept { return {}; }

}  // namespace rxbench
