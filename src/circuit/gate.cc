#include "circuit/gate.hh"

#include <array>

#include "common/logging.hh"

namespace dtann {

const char *
gateName(GateKind kind)
{
    switch (kind) {
      case GateKind::Const0: return "CONST0";
      case GateKind::Const1: return "CONST1";
      case GateKind::Not: return "NOT";
      case GateKind::Nand2: return "NAND2";
      case GateKind::Nand3: return "NAND3";
      case GateKind::Nor2: return "NOR2";
      case GateKind::Nor3: return "NOR3";
      case GateKind::Aoi21: return "AOI21";
      case GateKind::Aoi22: return "AOI22";
      case GateKind::Oai21: return "OAI21";
      case GateKind::Oai22: return "OAI22";
      case GateKind::CarryN: return "CARRYN";
      case GateKind::MirrorSumN: return "MSUMN";
      default: return "?";
    }
}

bool
gateEval(GateKind kind, uint32_t in)
{
    const bool a = in & 1, b = in & 2, c = in & 4, d = in & 8;
    switch (kind) {
      case GateKind::Const0: return false;
      case GateKind::Const1: return true;
      case GateKind::Not: return !a;
      case GateKind::Nand2: return !(a && b);
      case GateKind::Nand3: return !(a && b && c);
      case GateKind::Nor2: return !(a || b);
      case GateKind::Nor3: return !(a || b || c);
      case GateKind::Aoi21: return !((a && b) || c);
      case GateKind::Aoi22: return !((a && b) || (c && d));
      case GateKind::Oai21: return !((a || b) && c);
      case GateKind::Oai22: return !((a || b) && (c || d));
      case GateKind::CarryN: return !((a && b) || (c && (a || b)));
      case GateKind::MirrorSumN:
        return !((a && b && c) || (d && (a || b || c)));
      default:
        panic("gateEval: bad gate kind %d", static_cast<int>(kind));
    }
}

uint16_t
gateTable(GateKind kind)
{
    static const auto tables = [] {
        std::array<uint16_t, static_cast<size_t>(GateKind::NumKinds)> t{};
        for (size_t k = 0; k < t.size(); ++k) {
            GateKind kk = static_cast<GateKind>(k);
            uint32_t used = (1u << gateArity(kk)) - 1;
            for (uint32_t idx = 0; idx < 16; ++idx)
                if (gateEval(kk, idx & used))
                    t[k] |= static_cast<uint16_t>(1u << idx);
        }
        return t;
    }();
    dtann_assert(kind < GateKind::NumKinds, "gateTable: bad gate kind %d",
                 static_cast<int>(kind));
    return tables[static_cast<size_t>(kind)];
}

} // namespace dtann
