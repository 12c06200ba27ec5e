#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>

#include "common/metrics.hpp"
#include "datapath/adders.hpp"
#include "designs/registry.hpp"
#include "library/builders.hpp"
#include "place/place.hpp"
#include "reference_place.hpp"
#include "synth/mapper.hpp"
#include "tech/technology.hpp"

namespace gap::place {
namespace {

netlist::Netlist mapped_adder(const library::CellLibrary& lib, int width) {
  const auto aig = datapath::make_adder_aig(datapath::AdderKind::kRipple, width);
  return synth::map_to_netlist(aig, lib, synth::MapOptions{}, "add");
}

class PlaceTest : public ::testing::Test {
 protected:
  PlaceTest() : lib_(library::make_rich_asic_library(tech::asic_025um())) {}
  library::CellLibrary lib_;
};

TEST_F(PlaceTest, AllInstancesInsideDie) {
  auto nl = mapped_adder(lib_, 16);
  PlaceOptions opt;
  opt.sa_moves = 2000;
  const PlaceResult r = place(nl, opt);
  for (InstanceId id : nl.all_instances()) {
    const netlist::Instance& i = nl.instance(id);
    EXPECT_GE(i.x_um, 0.0);
    EXPECT_LE(i.x_um, r.die_w_um);
    EXPECT_GE(i.y_um, 0.0);
    EXPECT_LE(i.y_um, r.die_h_um);
  }
}

TEST_F(PlaceTest, CarefulBeatsScattered) {
  auto nl1 = mapped_adder(lib_, 32);
  auto nl2 = mapped_adder(lib_, 32);
  PlaceOptions careful;
  careful.mode = PlacementMode::kCareful;
  careful.sa_moves = 10000;
  PlaceOptions scattered;
  scattered.mode = PlacementMode::kScattered;
  const PlaceResult rc = place(nl1, careful);
  const PlaceResult rs = place(nl2, scattered);
  EXPECT_LT(rc.total_hpwl_um, rs.total_hpwl_um * 0.5);
}

TEST_F(PlaceTest, SaImprovesOverInitial) {
  auto nl = mapped_adder(lib_, 32);
  PlaceOptions opt;
  opt.sa_moves = 20000;
  const PlaceResult r = place(nl, opt);
  EXPECT_LE(r.total_hpwl_um, r.initial_hpwl_um * 1.001);
}

TEST_F(PlaceTest, NetLengthsAnnotated) {
  auto nl = mapped_adder(lib_, 8);
  place(nl, PlaceOptions{});
  std::size_t with_length = 0;
  for (NetId n : nl.all_nets())
    if (nl.net(n).length_um > 0.0) ++with_length;
  EXPECT_GT(with_length, nl.num_nets() / 4);
}

TEST_F(PlaceTest, ScatteredDieOverride) {
  auto nl = mapped_adder(lib_, 8);
  PlaceOptions opt;
  opt.mode = PlacementMode::kScattered;
  opt.scatter_die_mm = 10.0;  // the paper's 100 mm^2 chip
  const PlaceResult r = place(nl, opt);
  EXPECT_DOUBLE_EQ(r.die_w_um, 10000.0);
  EXPECT_DOUBLE_EQ(r.die_h_um, 10000.0);
}

TEST_F(PlaceTest, ScatterSpreadScalesDie) {
  auto nl1 = mapped_adder(lib_, 8);
  auto nl2 = mapped_adder(lib_, 8);
  PlaceOptions careful;
  const PlaceResult rc = place(nl1, careful);
  PlaceOptions scattered;
  scattered.mode = PlacementMode::kScattered;
  scattered.scatter_spread = 2.0;
  const PlaceResult rs = place(nl2, scattered);
  EXPECT_NEAR(rs.die_w_um, 2.0 * rc.die_w_um, 1e-6);
}

TEST_F(PlaceTest, RegionsConfineModules) {
  auto nl = mapped_adder(lib_, 8);
  // Assign all instances to module 0, confined to a corner box.
  for (InstanceId id : nl.all_instances()) nl.instance(id).module = ModuleId{0};
  PlaceOptions opt;
  opt.sa_moves = 500;
  floorplan::PlacedModule box{100.0, 200.0, 50.0, 50.0};
  opt.regions.emplace(ModuleId{0}, box);
  place(nl, opt);
  for (InstanceId id : nl.all_instances()) {
    const netlist::Instance& i = nl.instance(id);
    EXPECT_GE(i.x_um, box.x_um);
    EXPECT_LE(i.x_um, box.x_um + box.w_um);
    EXPECT_GE(i.y_um, box.y_um);
    EXPECT_LE(i.y_um, box.y_um + box.h_um);
  }
}

TEST_F(PlaceTest, HpwlManual) {
  netlist::Netlist nl("t", &lib_);
  const PortId a = nl.add_input("a");
  const NetId mid = nl.add_net("mid");
  const CellId inv = *lib_.smallest(library::Func::kInv, library::Family::kStatic);
  const InstanceId u1 = nl.add_instance("u1", inv, {nl.port(a).net}, mid);
  const NetId out = nl.add_net("out");
  const InstanceId u2 = nl.add_instance("u2", inv, {mid}, out);
  nl.add_output("y", out);
  nl.instance(u1).x_um = 10.0;
  nl.instance(u1).y_um = 20.0;
  nl.instance(u2).x_um = 110.0;
  nl.instance(u2).y_um = 50.0;
  annotate_net_lengths(nl);
  EXPECT_DOUBLE_EQ(nl.net(mid).length_um, 100.0 + 30.0);
  EXPECT_DOUBLE_EQ(total_hpwl(nl), 130.0);
}

// --- differential: place() against the pointer-walking reference --------

netlist::Netlist mapped_design(const library::CellLibrary& lib,
                               const std::string& name) {
  return synth::map_to_netlist(
      designs::make_design(name, designs::DatapathStyle::kSynthesized), lib,
      synth::MapOptions{}, name);
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Places one copy of `nl` with place() and another with ref::place and
/// requires every position, every net length, both HPWL totals and the SA
/// accept/reject counts to agree bit for bit.
void expect_matches_reference(const netlist::Netlist& nl,
                              const PlaceOptions& opt) {
  netlist::Netlist got = nl;
  netlist::Netlist want = nl;
  common::Counter& acc = common::metrics().counter("place.sa_moves_accepted");
  common::Counter& rej = common::metrics().counter("place.sa_moves_rejected");
  const std::uint64_t acc0 = acc.value();
  const std::uint64_t rej0 = rej.value();
  const PlaceResult r = place(got, opt);
  const std::uint64_t accepted = acc.value() - acc0;
  const std::uint64_t rejected = rej.value() - rej0;
  const ref::RefPlaceResult w = ref::place(want, opt);

  EXPECT_EQ(accepted, w.sa_accepted);
  EXPECT_EQ(rejected, w.sa_rejected);
  if (opt.mode == PlacementMode::kCareful && opt.sa_moves > 0) {
    EXPECT_GT(accepted, 0u) << "the case never exercised an accepted move";
  }
  EXPECT_TRUE(same_bits(r.die_w_um, w.result.die_w_um));
  EXPECT_TRUE(same_bits(r.die_h_um, w.result.die_h_um));
  EXPECT_TRUE(same_bits(r.initial_hpwl_um, w.result.initial_hpwl_um))
      << r.initial_hpwl_um << " vs " << w.result.initial_hpwl_um;
  EXPECT_TRUE(same_bits(r.total_hpwl_um, w.result.total_hpwl_um))
      << r.total_hpwl_um << " vs " << w.result.total_hpwl_um;

  std::size_t bad_pos = 0;
  for (InstanceId id : nl.all_instances()) {
    const netlist::Instance& g = got.instance(id);
    const netlist::Instance& e = want.instance(id);
    if (!same_bits(g.x_um, e.x_um) || !same_bits(g.y_um, e.y_um)) ++bad_pos;
  }
  EXPECT_EQ(bad_pos, 0u) << "instances placed differently";
  std::size_t bad_len = 0;
  for (NetId n : nl.all_nets())
    if (!same_bits(got.net(n).length_um, want.net(n).length_um)) ++bad_len;
  EXPECT_EQ(bad_len, 0u) << "nets annotated differently";
}

class PlaceOracleTest : public PlaceTest {};

TEST_F(PlaceOracleTest, RippleAdderCareful) {
  PlaceOptions opt;
  opt.sa_moves = 20000;
  for (std::uint64_t seed : {1u, 7u}) {
    opt.seed = seed;
    expect_matches_reference(mapped_adder(lib_, 32), opt);
  }
}

TEST_F(PlaceOracleTest, Alu16Careful) {
  PlaceOptions opt;
  opt.sa_moves = 30000;
  expect_matches_reference(mapped_design(lib_, "alu16"), opt);
}

TEST_F(PlaceOracleTest, Scattered) {
  PlaceOptions opt;
  opt.mode = PlacementMode::kScattered;
  expect_matches_reference(mapped_design(lib_, "alu16"), opt);
  opt.scatter_die_mm = 10.0;
  opt.seed = 3;
  expect_matches_reference(mapped_adder(lib_, 16), opt);
}

TEST_F(PlaceOracleTest, TwoRegionsPlusUnlistedInstances) {
  netlist::Netlist nl = mapped_design(lib_, "alu16");
  // Thirds: module 0, module 1, and module 2, which has no region and so
  // shares the whole die with the module-less instances.
  for (InstanceId id : nl.all_instances())
    if (id.value() % 4 != 3) nl.instance(id).module = ModuleId{id.value() % 3};
  PlaceOptions opt;
  opt.sa_moves = 20000;
  opt.regions.emplace(ModuleId{0},
                      floorplan::PlacedModule{0.0, 0.0, 300.0, 200.0});
  opt.regions.emplace(ModuleId{1},
                      floorplan::PlacedModule{300.0, 0.0, 150.0, 250.0});
  expect_matches_reference(nl, opt);
}

/// A hand-built netlist with the corner cases of the pin lists: a cell
/// whose two inputs share one net (the net lists it twice), nets whose
/// only instance pin is the driver (HPWL 0), and port-driven nets.
netlist::Netlist corner_netlist(const library::CellLibrary& lib) {
  netlist::Netlist nl("corners", &lib);
  const CellId inv =
      *lib.smallest(library::Func::kInv, library::Family::kStatic);
  const CellId nand =
      *lib.smallest(library::Func::kNand2, library::Family::kStatic);
  const NetId a = nl.port(nl.add_input("a")).net;
  const NetId b = nl.port(nl.add_input("b")).net;
  NetId prev = a;
  for (int i = 0; i < 12; ++i) {
    const std::string k = std::to_string(i);
    const NetId sq = nl.add_net("sq" + k);
    nl.add_instance("sq" + k, nand, {prev, prev}, sq);  // repeated pin
    const NetId mix = nl.add_net("mix" + k);
    nl.add_instance("mix" + k, nand, {sq, i % 2 == 0 ? b : prev}, mix);
    const NetId lone = nl.add_net("lone" + k);
    nl.add_instance("lone" + k, inv, {mix}, lone);
    nl.add_output("y" + k, lone);  // lone: driver is its only instance pin
    prev = mix;
  }
  const NetId dangling = nl.add_net("dangling");
  nl.add_instance("dangling", inv, {prev}, dangling);  // no sinks at all
  return nl;
}

TEST_F(PlaceOracleTest, RepeatedPinsAndDriverOnlyNets) {
  const netlist::Netlist nl = corner_netlist(lib_);
  PlaceOptions opt;
  opt.sa_moves = 5000;
  expect_matches_reference(nl, opt);

  netlist::Netlist placed = nl;
  place(placed, opt);
  for (NetId n : placed.all_nets()) {
    const std::string& name = placed.net(n).name;
    if (name.rfind("lone", 0) == 0 || name == "dangling") {
      EXPECT_EQ(placed.net(n).length_um, 0.0) << name;
    }
  }
}

TEST_F(PlaceOracleTest, AnnotateAndTotalSkipUnplacedInstances) {
  netlist::Netlist got = corner_netlist(lib_);
  place(got, PlaceOptions{});
  // Unplace every third instance, then re-annotate both copies.
  for (InstanceId id : got.all_instances())
    if (id.value() % 3 == 0) got.instance(id).x_um = -1.0;
  netlist::Netlist want = got;
  annotate_net_lengths(got);
  ref::annotate_net_lengths(want);
  for (NetId n : got.all_nets())
    EXPECT_TRUE(same_bits(got.net(n).length_um, want.net(n).length_um))
        << got.net(n).name;
  EXPECT_TRUE(same_bits(total_hpwl(got), ref::total_hpwl(want)));
}

}  // namespace
}  // namespace gap::place
