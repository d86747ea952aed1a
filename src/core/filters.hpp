// Route-filter placement shared by Algorithm 1, Algorithm 2 and the
// strawman baselines.
//
// A "filter" in the paper is the abstract operation "on router r, deny
// routes to destination d learned from neighbor n". Concretely that is:
//  * an IGP distribute-list (`distribute-list prefix NAME in IFACE` backed
//    by an `ip prefix-list`) when the r-n link is an intra-AS adjacency, or
//  * a BGP inbound prefix list (`neighbor PEER prefix-list NAME in`) when
//    r-n is an eBGP session.
// One prefix list is maintained per scope (interface / peer); deny entries
// accumulate in front of a terminal permit-all, so multiple destinations
// share one binding — matching the paper's Listing 3 shape.
#pragma once

#include <string>

#include "src/config/model.hpp"
#include "src/routing/topology.hpp"

namespace confmask {

/// Prefix-list name for the filter scoped to an IGP interface.
[[nodiscard]] std::string igp_filter_name(const std::string& interface);
/// Prefix-list name for the filter scoped to a BGP peer.
[[nodiscard]] std::string bgp_filter_name(Ipv4Address peer);

/// Adds "deny `dest` learned from the far end of `link`" on `router`
/// (whose node id must be an endpoint of `link`). The router's config is
/// found through the node's `config_index` (a hostname lookup only when
/// `configs` is not the set `topo` was built from). Chooses IGP vs BGP
/// scope from the router configurations. Returns true if a new deny entry was
/// added, false if it already existed or no protocol carries the route
/// over that link.
bool add_route_filter(ConfigSet& configs, const Topology& topo,
                      int router_node, const Link& link,
                      const Ipv4Prefix& dest);

/// Removes a previously added deny entry for `dest` on the same scope.
/// Returns true if an entry was removed. The binding and permit-all
/// terminal are left in place.
bool remove_route_filter(ConfigSet& configs, const Topology& topo,
                         int router_node, const Link& link,
                         const Ipv4Prefix& dest);

}  // namespace confmask
