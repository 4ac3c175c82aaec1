#include "circuit/netlist.hpp"

#include <algorithm>
#include <atomic>

#include "util/error.hpp"

namespace ecms::circuit {

namespace {
std::uint64_t fresh_circuit_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace

Circuit::Circuit() : id_(fresh_circuit_id()) {
  names_.push_back("0");
  ids_["0"] = kGround;
  ids_["gnd"] = kGround;
}

NodeId Circuit::node(const std::string& name) {
  const auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const NodeId id = static_cast<NodeId>(names_.size());
  names_.push_back(name);
  ids_.emplace(name, id);
  return id;
}

bool Circuit::has_node(const std::string& name) const {
  return ids_.count(name) > 0;
}

NodeId Circuit::find_node(const std::string& name) const {
  const auto it = ids_.find(name);
  if (it == ids_.end()) throw NetlistError("unknown node: " + name);
  return it->second;
}

const std::string& Circuit::node_name(NodeId id) const {
  ECMS_REQUIRE(id >= 0 && static_cast<std::size_t>(id) < names_.size(),
               "node id out of range");
  return names_[static_cast<std::size_t>(id)];
}

template <typename T, typename... Args>
T& Circuit::emplace_device(Args&&... args) {
  auto dev = std::make_unique<T>(std::forward<Args>(args)...);
  ECMS_REQUIRE(by_name_.count(dev->name()) == 0,
               "duplicate device name: " + dev->name());
  T& ref = *dev;
  by_name_.emplace(dev->name(), dev.get());
  devices_.push_back(std::move(dev));
  finalized_ = false;
  id_ = fresh_circuit_id();
  return ref;
}

Resistor& Circuit::add_resistor(const std::string& name, NodeId a, NodeId b,
                                double ohms) {
  return emplace_device<Resistor>(name, a, b, ohms);
}

Capacitor& Circuit::add_capacitor(const std::string& name, NodeId a, NodeId b,
                                  double farads) {
  return emplace_device<Capacitor>(name, a, b, farads);
}

VSource& Circuit::add_vsource(const std::string& name, NodeId p, NodeId n,
                              SourceWave wave) {
  return emplace_device<VSource>(name, p, n, std::move(wave));
}

ISource& Circuit::add_isource(const std::string& name, NodeId p, NodeId n,
                              SourceWave wave) {
  return emplace_device<ISource>(name, p, n, std::move(wave));
}

Mosfet& Circuit::add_mosfet(const std::string& name, NodeId d, NodeId g,
                            NodeId s, NodeId b, MosParams params) {
  return emplace_device<Mosfet>(name, d, g, s, b, params);
}

Diode& Circuit::add_diode(const std::string& name, NodeId anode,
                          NodeId cathode, Diode::Params params) {
  return emplace_device<Diode>(name, anode, cathode, params);
}

VcSwitch& Circuit::add_switch(const std::string& name, NodeId a, NodeId b,
                              NodeId ctrl_p, NodeId ctrl_n,
                              VcSwitch::Params params) {
  return emplace_device<VcSwitch>(name, a, b, ctrl_p, ctrl_n, params);
}

void Circuit::finalize() {
  if (finalized_) return;
  std::size_t next = node_count() - 1;  // branches follow node unknowns
  branch_unknowns_ = 0;
  for (auto& d : devices_) {
    const int nb = d->branch_count();
    if (nb > 0) {
      d->set_branch_base(next);
      next += static_cast<std::size_t>(nb);
      branch_unknowns_ += static_cast<std::size_t>(nb);
    }
  }
  // Devices are append-only, so the bank and the RHS program only grow.
  for (; bound_devices_ < devices_.size(); ++bound_devices_) {
    Device& d = *devices_[bound_devices_];
    if (d.nonlinear()) nonlinear_.push_back(&d);
    const std::size_t first = bank_->size();
    d.bind_companions(*bank_);
    if (bank_->size() == first) rhs_ops_.push_back({&d, 0, 0});
    // Companion runs, split around C = 0 (open: no history source).
    for (std::size_t k = first; k < bank_->size(); ++k) {
      if (bank_->capacitance(k) == 0.0) continue;
      if (rhs_ops_.empty() || rhs_ops_.back().device != nullptr ||
          rhs_ops_.back().end != k) {
        rhs_ops_.push_back({nullptr, k, k});
      }
      ++rhs_ops_.back().end;
    }
  }
  finalized_ = true;
}

void Circuit::stamp_static_rhs(const StampContext& ctx,
                               std::span<double> b) const {
  ECMS_REQUIRE(finalized_ && b.size() == unknown_count() + 1,
               "static rhs needs a finalized circuit and a node-indexed rhs");
  const std::span<double> unknowns = b.subspan(1);
  for (const RhsOp& op : rhs_ops_) {
    if (op.device != nullptr) {
      op.device->stamp_static_rhs(ctx, unknowns);
    } else if (!ctx.is_dc()) {
      bank_->stamp_rhs(ctx, op.begin, op.end, b);
    }
  }
}

std::size_t Circuit::unknown_count() const {
  ECMS_REQUIRE(finalized_, "circuit not finalized");
  return node_count() - 1 + branch_unknowns_;
}

Device* Circuit::find(const std::string& name) {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : it->second;
}

const Device* Circuit::find(const std::string& name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : it->second;
}

std::vector<double> Circuit::breakpoints(double t_stop) const {
  std::vector<double> bp;
  for (const auto& d : devices_) d->collect_breakpoints(bp);
  std::sort(bp.begin(), bp.end());
  bp.erase(std::unique(bp.begin(), bp.end(),
                       [](double a, double b) { return std::abs(a - b) < 1e-15; }),
           bp.end());
  std::erase_if(bp, [&](double t) { return t <= 0.0 || t >= t_stop; });
  return bp;
}

void Circuit::throw_missing(const std::string& name) {
  throw NetlistError("no device named " + name);
}

void Circuit::throw_wrong_type(const std::string& name) {
  throw NetlistError("device " + name + " has unexpected type");
}

}  // namespace ecms::circuit
