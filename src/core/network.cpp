#include "core/network.hpp"

namespace phonebit::core {

std::int64_t Network::param_bytes() const {
  std::int64_t total = 0;
  for (const auto& l : layers_) total += l->param_bytes();
  return total;
}

std::int64_t Network::param_count() const {
  std::int64_t total = 0;
  for (const auto& l : layers_) total += l->param_count();
  return total;
}

}  // namespace phonebit::core
