// The JSON value moved to src/common/json.hpp; these aliases keep the old
// sca::service spelling compiling for code outside this tree.
#pragma once

#include "src/common/json.hpp"

namespace sca::service {
using common::Json;
using common::json_escape;
}  // namespace sca::service
