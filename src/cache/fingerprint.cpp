#include "cache/fingerprint.h"

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "util/strings.h"

namespace mframe::cache {

void Fnv1a::addBytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 0x100000001b3ull;
  }
}

void Fnv1a::add(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  add(bits);
}

Digest digestOf(std::string_view text) {
  Fnv1a h;
  h.add(text);
  return h.digest();
}

namespace {

/// Dense bottom-up value hashing — the same canonicalization the validator's
/// ValueNumbering interns (structurally identical expressions coincide,
/// commutative operand order is normalized away, names matter only at the
/// leaves), computed as one array pass because this sits on the cache hit
/// path where the interning maps' per-node allocations dominate. A 64-bit
/// collision at worst mislabels a digest; every hit is re-verified, so a
/// false match is rejected at replay, never trusted.
std::vector<std::uint64_t> valueHashes(const dfg::Dfg& g) {
  std::vector<std::uint64_t> vh(g.size(), 0);
  std::vector<std::uint64_t> ops;
  for (const dfg::Node& n : g.nodes()) {  // topological id order (builder
                                          // invariant, as numberGraph needs)
    Fnv1a h;
    h.add(static_cast<int>(n.kind));
    if (n.kind == dfg::OpKind::Input || n.kind == dfg::OpKind::LoopSuper)
      h.add(n.name);  // leaf / opaque identity
    if (n.kind == dfg::OpKind::Const) h.add(n.constValue);
    ops.clear();
    for (dfg::NodeId in : n.inputs) ops.push_back(vh[in]);
    if (dfg::isCommutative(n.kind)) std::sort(ops.begin(), ops.end());
    h.add(static_cast<std::uint64_t>(ops.size()));
    for (std::uint64_t o : ops) h.add(o);
    vh[n.id] = h.digest();
  }
  return vh;
}

}  // namespace

Digest fingerprintDfg(const dfg::Dfg& g) {
  const std::vector<std::uint64_t> num = valueHashes(g);

  Fnv1a h;
  h.add(std::string_view("dfg"));
  h.add(g.name());
  h.add(static_cast<std::uint64_t>(g.size()));
  std::vector<std::pair<std::uint64_t, std::string_view>> edges;
  for (const dfg::Node& n : g.nodes()) {
    h.add(n.name);
    h.add(static_cast<int>(n.kind));
    h.add(num[n.id]);
    h.add(n.cycles);
    h.add(n.delayNs);
    h.add(n.branchPath);
    h.add(n.constValue);
    h.add(n.width);
    // Operand edges: the raw edge list pins which named producer feeds
    // each port (two CSE-equal producers are still distinct operations
    // with distinct precedence edges), hashed by producer *name* so the
    // digest does not depend on node-id assignment. Commutative operands
    // are sorted the same way the value numbering canonicalizes them, so
    // a+b and b+a share a digest.
    h.add(static_cast<std::uint64_t>(n.inputs.size()));
    edges.clear();
    for (dfg::NodeId in : n.inputs)
      edges.emplace_back(num[in], std::string_view(g.node(in).name));
    if (dfg::isCommutative(n.kind)) std::sort(edges.begin(), edges.end());
    for (const auto& [evn, ename] : edges) {
      h.add(evn);
      h.add(ename);
    }
  }
  h.add(static_cast<std::uint64_t>(g.outputs().size()));
  for (const auto& [id, name] : g.outputs()) {
    h.add(static_cast<std::uint64_t>(id));
    h.add(name);
  }
  return h.digest();
}

Digest fingerprintLibrary(const celllib::CellLibrary& lib) {
  // Field-by-field, in the library's canonical order (modules in insertion
  // order, caps sets sorted). The mux table is hashed on the live accessor
  // out to 33 inputs so flat-extrapolated tails and explicit tables with
  // the same values collide, exactly like serialized round-trips do.
  Fnv1a h;
  h.add(std::string_view("lib"));
  h.add(lib.name());
  h.add(lib.regCost());
  for (int r = 2; r <= 33; ++r) h.add(lib.muxCost(r));
  h.add(static_cast<std::uint64_t>(lib.modules().size()));
  for (const celllib::Module& m : lib.modules()) {
    h.add(m.name);
    h.add(m.areaUm2);
    h.add(m.delayNs);
    h.add(m.stages);
    h.add(static_cast<std::uint64_t>(m.caps.size()));
    for (dfg::FuType t : m.caps) h.add(static_cast<int>(t));  // set: sorted
  }
  return h.digest();
}

namespace {

std::string constraintsText(const sched::Constraints& c) {
  std::string out = util::format("steps=%d chaining=%d clock=%.17g latency=%d",
                                 c.timeSteps, c.allowChaining ? 1 : 0,
                                 c.clockNs, c.latency);
  out += " limit=";
  for (const auto& [t, n] : c.fuLimit)  // std::map: sorted, deterministic
    out += util::format("%s:%d,", std::string(dfg::fuTypeName(t)).c_str(), n);
  out += " pipelined=";
  for (dfg::FuType t : c.pipelinedFus)  // std::set: sorted
    out += std::string(dfg::fuTypeName(t)) + ",";
  return out;
}

const char* priorityName(sched::PriorityRule r) {
  switch (r) {
    case sched::PriorityRule::Mobility: return "mobility";
    case sched::PriorityRule::MobilityNoReverse: return "mobility-noreverse";
    case sched::PriorityRule::InsertionOrder: return "insertion";
  }
  return "?";
}

void addConstraints(Fnv1a& h, const sched::Constraints& c) {
  h.add(c.timeSteps);
  h.add(c.allowChaining ? 1 : 0);
  h.add(c.clockNs);
  h.add(c.latency);
  h.add(static_cast<std::uint64_t>(c.fuLimit.size()));
  for (const auto& [t, n] : c.fuLimit) {  // std::map: sorted, deterministic
    h.add(static_cast<int>(t));
    h.add(n);
  }
  h.add(static_cast<std::uint64_t>(c.pipelinedFus.size()));
  for (dfg::FuType t : c.pipelinedFus) h.add(static_cast<int>(t));  // sorted
}

}  // namespace

// The digests hash the same fields the *Text renderings below print, minus
// the formatting: nothing on the hit path allocates or calls sprintf.
Digest mfsEnvDigest(const core::MfsOptions& opt) {
  Fnv1a h;
  h.add(std::string_view("mfs-env"));
  h.add(static_cast<int>(opt.mode));
  h.add(static_cast<int>(opt.priorityRule));
  addConstraints(h, opt.constraints);
  h.add(static_cast<std::uint64_t>(opt.priorityHint.size()));
  for (dfg::NodeId id : opt.priorityHint)
    h.add(static_cast<std::uint64_t>(id));
  h.add(opt.maxRestarts);
  h.add(opt.maxStepsCap);
  return h.digest();
}

Digest mfsaEnvDigest(const core::MfsaOptions& opt,
                     const celllib::CellLibrary& lib) {
  Fnv1a h;
  h.add(std::string_view("mfsa-env"));
  addConstraints(h, opt.constraints);
  h.add(opt.weights.time);
  h.add(opt.weights.alu);
  h.add(opt.weights.mux);
  h.add(opt.weights.reg);
  h.add(static_cast<int>(opt.style));
  h.add(static_cast<int>(opt.priorityRule));
  h.add(static_cast<int>(opt.interconnect));
  h.add(opt.busModel.busWireUm2);
  h.add(opt.busModel.driverUm2);
  h.add(opt.busModel.receiverUm2);
  h.add(fingerprintLibrary(lib));
  return h.digest();
}

// traceLiapunov is deliberately absent from the env digests and texts: it
// only decides
// whether the in-memory trace vector is recorded and never changes the
// synthesized result, so caching across it is sound (a replayed result
// simply carries an empty trace).
std::string mfsEnvText(const core::MfsOptions& opt) {
  std::string out = "mfs ";
  out += opt.mode == core::MfsLiapunov::Mode::TimeConstrained
             ? "mode=time "
             : "mode=resource ";
  out += util::format("priority=%s ", priorityName(opt.priorityRule));
  out += constraintsText(opt.constraints);
  out += " hint=";
  for (dfg::NodeId id : opt.priorityHint) out += util::format("%u,", id);
  out += util::format(" maxRestarts=%d maxStepsCap=%d", opt.maxRestarts,
                      opt.maxStepsCap);
  return out;
}

std::string mfsaEnvText(const core::MfsaOptions& opt,
                        const celllib::CellLibrary& lib) {
  std::string out = "mfsa ";
  out += constraintsText(opt.constraints);
  out += util::format(
      " weights=%.17g,%.17g,%.17g,%.17g style=%d priority=%s", opt.weights.time,
      opt.weights.alu, opt.weights.mux, opt.weights.reg,
      static_cast<int>(opt.style), priorityName(opt.priorityRule));
  out += opt.interconnect == core::InterconnectStyle::Bus ? " interconnect=bus"
                                                          : " interconnect=mux";
  out += util::format(" bus=%.17g,%.17g,%.17g", opt.busModel.busWireUm2,
                      opt.busModel.driverUm2, opt.busModel.receiverUm2);
  out += util::format(" lib=%016llx",
                      static_cast<unsigned long long>(fingerprintLibrary(lib)));
  return out;
}

}  // namespace mframe::cache
