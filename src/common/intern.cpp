#include "common/intern.h"

#include <cstring>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_set>

#include "common/logging.h"

namespace flexnerfer {

std::string_view
InternName(std::string_view name)
{
    struct Table {
        std::mutex mutex;
        /** Keys view into `names`, whose deque never relocates them. */
        std::unordered_set<std::string_view> views;
        std::deque<std::string> names;
    };
    // Never destroyed: views must stay valid through static teardown.
    static Table* const table = new Table;
    std::lock_guard<std::mutex> lock(table->mutex);
    // Find first: a hit must not allocate.
    const auto found = table->views.find(name);
    if (found != table->views.end()) return *found;
    return *table->views.insert(table->names.emplace_back(name)).first;
}

std::string_view
InternName(std::string_view name, std::string_view suffix)
{
    constexpr std::size_t kMaxJoinedName = 128;
    const std::size_t size = name.size() + suffix.size();
    FLEX_CHECK_MSG(size <= kMaxJoinedName,
                   "name '" << name << suffix << "' is longer than "
                            << kMaxJoinedName << " bytes");
    char joined[kMaxJoinedName];
    std::memcpy(joined, name.data(), name.size());
    std::memcpy(joined + name.size(), suffix.data(), suffix.size());
    return InternName(std::string_view(joined, size));
}

}  // namespace flexnerfer
