// Shared fixtures/builders for the libmframe test suite.
#pragma once

#include <gtest/gtest.h>

#include "dfg/builder.h"
#include "sched/schedule.h"

namespace mframe::test {

/// a+b -> s; c-d -> t; s*t -> y; y<lim -> f. Critical path 3.
inline dfg::Dfg smallDiamond() {
  dfg::Builder b("diamond");
  const auto a = b.input("a");
  const auto bb = b.input("b");
  const auto c = b.input("c");
  const auto d = b.input("d");
  const auto lim = b.input("lim");
  const auto s = b.add(a, bb, "s");
  const auto t = b.sub(c, d, "t");
  const auto y = b.mul(s, t, "y");
  const auto f = b.lt(y, lim, "f");
  b.output(y, "y");
  b.output(f, "f");
  return std::move(b).build();
}

/// `g` under another graph name.
inline dfg::Dfg renamed(const dfg::Dfg& g, std::string name) {
  dfg::Builder b(g);
  b.setName(std::move(name));
  return std::move(b).build();
}

/// A pure chain of n additions (critical path n).
inline dfg::Dfg addChain(int n) {
  dfg::Builder b("chain" + std::to_string(n));
  auto prev = b.input("x0");
  const auto one = b.input("k");
  for (int i = 1; i <= n; ++i)
    prev = b.add(prev, one, "c" + std::to_string(i));
  b.output(prev, "y");
  return std::move(b).build();
}

/// n independent additions (width n, depth 1).
inline dfg::Dfg addParallel(int n) {
  dfg::Builder b("par" + std::to_string(n));
  const auto x = b.input("x");
  const auto y = b.input("y");
  for (int i = 0; i < n; ++i) b.output(b.add(x, y, "p" + std::to_string(i)), "o" + std::to_string(i));
  return std::move(b).build();
}

/// Two ops in exclusive branch arms plus a join-side op.
inline dfg::Dfg branchy() {
  dfg::Builder b("branchy");
  const auto a = b.input("a");
  const auto c = b.input("c");
  b.pushBranch("c1", "t");
  const auto t1 = b.add(a, c, "t1");
  b.popBranch();
  b.pushBranch("c1", "e");
  const auto e1 = b.add(a, c, "e1");
  b.popBranch();
  const auto j = b.sub(t1, e1, "j");
  b.output(j, "j");
  return std::move(b).build();
}

}  // namespace mframe::test
