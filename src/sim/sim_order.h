// The simulator's scheduling orders, shared by the data-oriented core and
// the test-side reference simulator (tests/reference_sim.h) so both pop
// ready nodes and drain events in exactly the same sequence.
//
// Every comparator below is a *strict total order*: ties on the primary key
// (priority, time) are broken by a unique secondary key (arrival sequence,
// node id). With a unique maximum at every step, the pop sequence of a heap
// is determined by the comparator alone — two heap implementations holding
// the same entries pop identically regardless of internal array layout.
// tests/sim_test.cpp pins this with explicit equal-key regression tests;
// never weaken a tiebreak back to a partial order.
//
// Totality additionally requires comparable keys: NaN priorities or NaN
// durations would violate strict weak ordering and corrupt the heaps, so
// Simulator rejects them up front (validate_for_simulation in simulator.h).
#pragma once

#include <cstdint>

#include "compile/dist_graph.h"

namespace heterog::sim {

struct ReadyEntry {
  double priority = 0.0;
  int64_t sequence = 0;  // unique arrival order: FIFO tiebreak / FIFO order
  compile::DistNodeId node = -1;
};

/// Max-heap on priority; equal priorities pop in arrival order (sequence is
/// unique per entry, so the order is total).
struct RankOrder {
  bool operator()(const ReadyEntry& a, const ReadyEntry& b) const {
    if (a.priority != b.priority) return a.priority < b.priority;  // max-heap
    return a.sequence > b.sequence;
  }
};

/// Min-heap on arrival order (sequence is unique, so the order is total).
struct FifoOrder {
  bool operator()(const ReadyEntry& a, const ReadyEntry& b) const {
    return a.sequence > b.sequence;
  }
};

struct Event {
  double time = 0.0;
  compile::DistNodeId node = -1;
  /// (time, node) lexicographic: equal-time completions drain in node-id
  /// order (node ids are unique, so the order is total).
  bool operator>(const Event& other) const {
    if (time != other.time) return time > other.time;
    return node > other.node;
  }
};

/// Comparator form of Event::operator> for flat std::*_heap event queues
/// (std::greater<Event> resolves to the same call; this names it explicitly).
struct EventAfter {
  bool operator()(const Event& a, const Event& b) const { return a > b; }
};

}  // namespace heterog::sim
