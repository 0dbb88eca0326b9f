#include "hw/node_spec.h"

namespace vtrain {

NodeSpec
dgxA100Node()
{
    return NodeSpec{};
}

} // namespace vtrain
