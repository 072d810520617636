// Grouping of queued items by destination.
#pragma once

#include <algorithm>
#include <vector>

namespace troxy {

/// Sorts `items` by (`to`, `order`) — ascending destination, and within a
/// destination the order the caller queued them in — and calls
/// `fn(first, last)` once per destination's run of items. Sorting on the
/// explicit `order` keeps the grouping stable without the temporary
/// buffer std::stable_sort allocates.
template <typename Item, typename Fn>
void for_each_destination(std::vector<Item>& items, Fn&& fn) {
    std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
        return a.to != b.to ? a.to < b.to : a.order < b.order;
    });
    for (auto first = items.begin(); first != items.end();) {
        const auto last =
            std::find_if(first, items.end(),
                         [&](const Item& item) { return item.to != first->to; });
        fn(first, last);
        first = last;
    }
}

}  // namespace troxy
