/**
 * @file
 * Transistor-level view of CMOS gates.
 *
 * Every gate kind maps to a pair of channel networks: a P pull-up
 * network connecting Vdd to the output and an N pull-down network
 * connecting the output to Vss. Each network is a graph whose edges
 * are transistors (switches) controlled by gate inputs. This is the
 * level at which defects are injected.
 *
 * Node convention within a network: node 0 is the rail (Vdd for P,
 * Vss for N), node 1 is the gate output, nodes 2+ are internal
 * source/drain connections.
 */

#ifndef DTANN_TRANSISTOR_SWITCH_NETWORK_HH
#define DTANN_TRANSISTOR_SWITCH_NETWORK_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "circuit/gate.hh"

namespace dtann {

/** One transistor within a channel network. */
struct Switch
{
    uint8_t nodeA;  ///< first source/drain connection
    uint8_t nodeB;  ///< second source/drain connection
    uint8_t input;  ///< controlling gate-input index
    bool pmos;      ///< PMOS conducts on 0, NMOS conducts on 1

    /** Does this (defect-free) transistor conduct for these inputs? */
    bool
    conducts(uint32_t inputs) const
    {
        bool high = (inputs >> input) & 1;
        return pmos ? !high : high;
    }
};

/** One channel network (pull-up or pull-down). */
struct ChannelNetwork
{
    uint8_t numNodes = 2;        ///< rail + out + internals
    std::vector<Switch> switches;
};

/** Full transistor schematic of a gate: P and N networks. */
struct GateSchematic
{
    GateKind kind;
    ChannelNetwork p;  ///< pull-up (rail = Vdd)
    ChannelNetwork n;  ///< pull-down (rail = Vss)

    /** Total transistors. */
    size_t
    transistorCount() const
    {
        return p.switches.size() + n.switches.size();
    }
};

/**
 * The static CMOS schematic of @p kind.
 *
 * Fatal for kinds without a single-stage schematic (constants).
 */
const GateSchematic &schematicFor(GateKind kind);

/**
 * True when @p kind has a transistor schematic (is a fault site):
 * every kind with transistors, i.e. all but the constants.
 */
constexpr bool
hasSchematic(GateKind kind)
{
    return kind < GateKind::NumKinds && gateTransistorCount(kind) > 0;
}

} // namespace dtann

#endif // DTANN_TRANSISTOR_SWITCH_NETWORK_HH
