/**
 * @file
 * Process-lifetime interned names.
 *
 * A serving result names its scene on every request. Copying the name
 * into each result would cost an allocation per request for any name
 * past the small-string buffer, so results carry a std::string_view
 * into this table instead. Names are interned where they enter the
 * process: at scene registration, and where a workload derives op
 * names (a batch element's "#e<k>", a delta frame's "#d"). The table
 * is never freed, so a view outlives the service, cluster or frame
 * that produced it.
 */
#ifndef FLEXNERFER_COMMON_INTERN_H_
#define FLEXNERFER_COMMON_INTERN_H_

#include <string_view>

namespace flexnerfer {

/**
 * Returns the interned copy of @p name: equal names give the same view,
 * valid until the process exits. A name already interned is found
 * without allocating; only a first sighting copies it. Thread-safe.
 */
std::string_view InternName(std::string_view name);

/**
 * Interns @p name followed by @p suffix. The two are joined in a stack
 * buffer, not an owned string, so a joined name already interned costs
 * no allocation. The joined name must fit 128 bytes (FLEX_CHECK).
 */
std::string_view InternName(std::string_view name, std::string_view suffix);

}  // namespace flexnerfer

#endif  // FLEXNERFER_COMMON_INTERN_H_
