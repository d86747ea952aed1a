#include "src/routing/igp_distances.hpp"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>

namespace confmask {

IgpDistances::IgpDistances(std::shared_ptr<const FlatTopology> flat)
    : flat_(std::move(flat)),
      memo_(std::make_shared<Memo>(
          static_cast<std::size_t>(flat_->router_count()))) {}

long IgpDistances::distance(int from, int to) const {
  const auto source = static_cast<std::size_t>(from);
  std::vector<long>& row = memo_->rows[source];
  std::call_once(memo_->once[source], [&] {
    shortest_paths(*flat_, from, /*toward_source=*/false, row);
  });
  const long d = row[static_cast<std::size_t>(to)];
  return d >= kUnreachable ? -1 : d;
}

void IgpDistances::shortest_paths(const FlatTopology& flat, int source,
                                  bool toward_source,
                                  std::vector<long>& dist) {
  using HeapItem = std::pair<long, std::int32_t>;
  dist.assign(static_cast<std::size_t>(flat.router_count()), kUnreachable);
  dist[static_cast<std::size_t>(source)] = 0;
  std::vector<HeapItem> heap{{0, source}};
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>{});
    const auto [d, u] = heap.back();
    heap.pop_back();
    if (d != dist[static_cast<std::size_t>(u)]) continue;
    const std::int32_t last = flat.last_out(u);
    for (std::int32_t e = flat.first_out(u); e < last; ++e) {
      const std::uint8_t flags = flat.edge_flags(e);
      if ((flags & FlatTopology::kIgp) == 0) continue;
      const std::int32_t w = flat.edge_target(e);
      // Towards the source, the cost that counts is w forwarding to u.
      const long cost =
          (flags & FlatTopology::kOspf) == 0 ? 1
          : toward_source                    ? flat.edge_cost_in(e)
                                             : flat.edge_cost_out(e);
      if (d + cost < dist[static_cast<std::size_t>(w)]) {
        dist[static_cast<std::size_t>(w)] = d + cost;
        heap.emplace_back(d + cost, w);
        std::push_heap(heap.begin(), heap.end(), std::greater<>{});
      }
    }
  }
}

}  // namespace confmask
