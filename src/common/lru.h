#ifndef LOCALUT_COMMON_LRU_H_
#define LOCALUT_COMMON_LRU_H_

/**
 * @file
 * Shared bounded-LRU eviction for the clock-stamped caches
 * (LutTableCache, PlanCache's prepared-operand memo).  Entries carry a
 * monotonically-increasing `lastUse` stamp; eviction linearly scans
 * for the minimum — eviction only runs on an insert past the bound, so
 * O(entries) per eviction beats maintaining an intrusive list on every
 * hit.
 */

#include <utility>

namespace localut {

/**
 * Erases the lowest-`lastUse` entry of the non-empty @p map (mapped
 * values expose a `lastUse` member) and returns its mapped value, so
 * the caller can settle what the entry accounted for.  Callers hold
 * their own lock.
 */
template <typename Map>
typename Map::mapped_type
takeLeastRecentlyUsed(Map& map)
{
    auto victim = map.begin();
    for (auto it = map.begin(); it != map.end(); ++it) {
        if (it->second.lastUse < victim->second.lastUse) {
            victim = it;
        }
    }
    typename Map::mapped_type value = std::move(victim->second);
    map.erase(victim);
    return value;
}

/**
 * Erases lowest-`lastUse` entries of @p map while @p needEvict() holds
 * (and the map is non-empty).  Callers hold their own lock.
 */
template <typename Map, typename NeedEvict>
void
evictLeastRecentlyUsedWhile(Map& map, const NeedEvict& needEvict)
{
    while (!map.empty() && needEvict()) {
        takeLeastRecentlyUsed(map);
    }
}

} // namespace localut

#endif // LOCALUT_COMMON_LRU_H_
