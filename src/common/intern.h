/**
 * @file
 * Process-lifetime interned names.
 *
 * A serving result names its scene on every request. Copying the name
 * into each result would cost an allocation per request for any name
 * past the small-string buffer, so results carry a std::string_view
 * into this table instead. Names are interned where they enter the
 * process: scene registration and the wire decoder. The table is never
 * freed, so a view outlives the service, cluster or frame that produced
 * it.
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

}  // namespace flexnerfer

#endif  // FLEXNERFER_COMMON_INTERN_H_
