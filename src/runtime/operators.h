// Executable operator instances. Each physical task owns one
// OperatorInstance that really processes tuples — filters compare values,
// windows maintain keyed panes, joins probe keyed buffers — so simulated
// runs produce functionally correct results while the simulator supplies
// the timing.

#ifndef PDSP_RUNTIME_OPERATORS_H_
#define PDSP_RUNTIME_OPERATORS_H_

#include <limits>
#include <memory>
#include <vector>

#include "src/common/status.h"
#include "src/data/batch.h"
#include "src/query/plan.h"
#include "src/runtime/element.h"

namespace pdsp {

/// \brief One parallel instance of a non-source operator.
class OperatorInstance {
 public:
  virtual ~OperatorInstance() = default;

  /// Processes one element arriving on `input_port` (joins: 0 = left,
  /// 1 = right) at virtual time `now`; appends outputs to *out.
  virtual Status Process(const StreamElement& element, int input_port,
                         double now, std::vector<StreamElement>* out) = 0;

  /// Processes rows [row_begin, row_end) of a columnar batch, appending
  /// output rows to *out (whose layout is this operator's output layout).
  /// The base implementation materializes each row into a StreamElement and
  /// delegates to Process — the row-view adapter UDOs rely on. Every other
  /// operator overrides it: filter, map, flatMap and sink with columnar
  /// kernels (src/runtime/kernels.h) that are bit-identical to their scalar
  /// Process (same outputs, same order, same RNG draw sequence); window
  /// aggregates and joins with hash-indexed columnar state
  /// (src/runtime/keyed_state.h), their Process being a one-row adapter
  /// over this call.
  virtual Status ProcessBatch(const data::Batch& in, size_t row_begin,
                              size_t row_end, int input_port, double now,
                              data::Batch* out);

  /// Fires any timers due at or before `now` (window pane emission).
  virtual void OnTimer(double now, std::vector<StreamElement>* out) {
    (void)now;
    (void)out;
  }

  /// Earliest pending timer; +infinity when none.
  virtual double NextTimerTime() const {
    return std::numeric_limits<double>::infinity();
  }

  /// Emits whatever partial state remains at end of stream.
  virtual void Flush(double now, std::vector<StreamElement>* out) {
    (void)now;
    (void)out;
  }

  /// Live state: rows buffered by joins and count windows, (pane, key)
  /// entries held by time windows. Read by tests and the benchmark's
  /// per-operator probe (runtime.stateful.peak_state_rows).
  virtual size_t StateSize() const { return 0; }

  /// Elements dropped because they arrived after their window had already
  /// fired (late data under queueing delay, as in Flink's default policy).
  virtual int64_t LateDrops() const { return 0; }
};

/// Instantiates the runtime for (op, instance) of a validated plan.
/// Sources are driven by the simulator itself and are invalid here.
Result<std::unique_ptr<OperatorInstance>> CreateOperatorInstance(
    const LogicalPlan& plan, LogicalPlan::OpId op, int instance,
    uint64_t seed);

/// Evaluates `value <op> literal` exactly as FilterExec does (shared with
/// tests and selectivity checks).
bool EvaluateFilter(const Value& value, FilterOp op, const Value& literal);

}  // namespace pdsp

#endif  // PDSP_RUNTIME_OPERATORS_H_
