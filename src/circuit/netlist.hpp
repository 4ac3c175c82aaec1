// Circuit: the netlist container.
//
// Owns devices and their capacitor companion bank, maps node names to ids,
// and assigns MNA unknown indices. Construction is additive; finalize()
// freezes branch indices and banks companions (lazy, idempotent).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "circuit/device.hpp"
#include "circuit/diode.hpp"
#include "circuit/mosfet.hpp"
#include "circuit/passive.hpp"
#include "circuit/sources.hpp"

namespace ecms::circuit {

class Circuit {
 public:
  Circuit();

  /// Returns the id for `name`, creating the node if needed. "0" and "gnd"
  /// both name ground.
  NodeId node(const std::string& name);
  bool has_node(const std::string& name) const;
  /// Id lookup that throws if the node does not exist.
  NodeId find_node(const std::string& name) const;
  const std::string& node_name(NodeId id) const;
  /// Number of nodes including ground.
  std::size_t node_count() const { return names_.size(); }

  /// Process-unique identity of this circuit's current device list: fresh
  /// at construction and after every added device (element values are
  /// immutable and devices are never removed, so nothing else can change a
  /// static stamp). The sparse engine keys its kept matrix image on it.
  std::uint64_t id() const { return id_; }

  // --- device factories (names must be unique) ---
  Resistor& add_resistor(const std::string& name, NodeId a, NodeId b,
                         double ohms);
  Capacitor& add_capacitor(const std::string& name, NodeId a, NodeId b,
                           double farads);
  VSource& add_vsource(const std::string& name, NodeId p, NodeId n,
                       SourceWave wave);
  ISource& add_isource(const std::string& name, NodeId p, NodeId n,
                       SourceWave wave);
  Mosfet& add_mosfet(const std::string& name, NodeId d, NodeId g, NodeId s,
                     NodeId b, MosParams params);
  Diode& add_diode(const std::string& name, NodeId anode, NodeId cathode,
                   Diode::Params params);
  VcSwitch& add_switch(const std::string& name, NodeId a, NodeId b,
                       NodeId ctrl_p, NodeId ctrl_n, VcSwitch::Params params);

  /// Assigns branch unknowns and banks the companions of devices added
  /// since the last call (latched history stays). Safe to call repeatedly;
  /// devices added after a finalize trigger it again on the next call.
  void finalize();

  /// Total MNA unknowns: (nodes - 1) + branch currents. Requires finalize().
  std::size_t unknown_count() const;

  /// Adds every device's static RHS to `b` in device order: the bank's
  /// companion history sources (transient points only) and the other
  /// devices' stamp_static_rhs(). `b` is indexed by node id: b[0] is a
  /// sink for ground's terms and b[1 + i] is unknown i. Needs finalize().
  void stamp_static_rhs(const StampContext& ctx, std::span<double> b) const;
  // The bank's history-latching passes.
  void init_state(const StampContext& ctx) { bank_->init_state(ctx); }
  void accept_step(const StampContext& ctx) { bank_->accept_step(ctx); }
  /// Takes the latched history of `other`, a circuit built from the same
  /// netlist (CompanionBank::copy_history). Requires finalize() on both.
  void copy_history(const Circuit& other) { bank_->copy_history(*other.bank_); }
  const CompanionBank& companions() const { return *bank_; }

  const std::vector<std::unique_ptr<Device>>& devices() const {
    return devices_;
  }
  /// The nonlinear devices in device order. Requires finalize().
  std::span<const Device* const> nonlinear_devices() const {
    return nonlinear_;
  }

  /// Device lookup by unique name; nullptr if absent.
  Device* find(const std::string& name);
  const Device* find(const std::string& name) const;
  /// Typed lookup; throws NetlistError on missing name or wrong type.
  template <typename T>
  T& get(const std::string& name) {
    Device* d = find(name);
    if (d == nullptr) throw_missing(name);
    T* t = dynamic_cast<T*>(d);
    if (t == nullptr) throw_wrong_type(name);
    return *t;
  }

  /// All stimulus breakpoints in [0, t_stop], sorted and deduplicated.
  std::vector<double> breakpoints(double t_stop) const;

 private:
  template <typename T, typename... Args>
  T& emplace_device(Args&&... args);
  [[noreturn]] static void throw_missing(const std::string& name);
  [[noreturn]] static void throw_wrong_type(const std::string& name);

  std::vector<std::string> names_;  // node id -> name
  std::unordered_map<std::string, NodeId> ids_;
  std::vector<std::unique_ptr<Device>> devices_;
  std::unordered_map<std::string, Device*> by_name_;
  std::size_t branch_unknowns_ = 0;
  bool finalized_ = false;
  std::uint64_t id_;
  // On the heap: devices point into it, and a Circuit moves.
  std::unique_ptr<CompanionBank> bank_ = std::make_unique<CompanionBank>();
  std::size_t bound_devices_ = 0;  // devices whose companions are banked
  std::vector<const Device*> nonlinear_;  // bound nonlinear devices, in order
  // The static-RHS program: a device's stamp_static_rhs() when `device` is
  // set, else the bank's companions [begin, end).
  struct RhsOp {
    const Device* device = nullptr;
    std::size_t begin = 0, end = 0;
  };
  std::vector<RhsOp> rhs_ops_;
};

}  // namespace ecms::circuit
