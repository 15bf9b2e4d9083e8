#include "rank/ffe/partition.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace catapult::rank::ffe {

namespace {

/**
 * Batch kind of the output stores: one past the last OpCode, so within
 * a level every load runs before any store.
 */
constexpr std::uint8_t kStoreKind =
    static_cast<std::uint8_t>(OpCode::kLoadConst) + 1;
static_assert(kStoreKind > static_cast<std::uint8_t>(OpCode::kLoadFeature));
constexpr std::uint32_t kKinds = kStoreKind + 1u;

/** Register operands an arithmetic op reads. */
int SourceCount(OpCode op) {
    switch (op) {
      case OpCode::kLn:
      case OpCode::kExp:
      case OpCode::kFloatToInt:
        return 1;
      case OpCode::kSelect:
        return 3;
      default:
        return 2;
    }
}

template <typename F>
const std::uint32_t* Unary(float* d, const float* r, const std::uint32_t* o,
                           std::uint32_t n, F f) {
    for (std::uint32_t i = 0; i < n; ++i) d[i] = f(r[o[i]]);
    return o + n;
}

template <typename F>
const std::uint32_t* Binary(float* d, const float* r, const std::uint32_t* o,
                            std::uint32_t n, F f) {
    for (std::uint32_t i = 0; i < n; ++i, o += 2) d[i] = f(r[o[0]], r[o[1]]);
    return o;
}

}  // namespace

Partition::Partition(std::vector<Program> programs,
                     const std::vector<bool>& live)
    : programs_(std::move(programs)) {
    assert(live.empty() || live.size() == programs_.size());
    // Only live programs are lowered. Op ids: their instructions in
    // program order [0, n_instr), then one output store per lowered
    // program. Sources are rebased to op ids.
    std::vector<std::size_t> lowered;
    std::size_t n_instr = 0;
    for (std::size_t p = 0; p < programs_.size(); ++p) {
        total_instructions_ +=
            static_cast<std::int64_t>(programs_[p].instructions.size());
        if (!live.empty() && !live[p]) continue;
        lowered.push_back(p);
        n_instr += programs_[p].instructions.size();
    }
    live_programs_ = lowered.size();
    const std::size_t n_ops = n_instr + lowered.size();

    std::vector<Instruction> ops;
    ops.reserve(n_instr);
    std::vector<std::int32_t> level(n_ops);
    std::vector<std::uint8_t> kind(n_ops);
    std::vector<std::int32_t> last_store(kFeatureUniverse, -1);
    // The op holding each slot's value since its last store (-1: none
    // yet), and the op whose register holds each instruction's value.
    std::vector<std::int32_t> slot_load(kFeatureUniverse, -1);
    std::vector<std::uint32_t> value(n_instr);
    // The op whose register holds each lowered program's result.
    std::vector<std::uint32_t> root(lowered.size());
    std::uint32_t repeated_loads = 0;
    std::int32_t max_level = 0;

    // 1. Dependency level of every op. Constants are preloaded (level
    //    -1, never scheduled); everything else runs one level after the
    //    latest register or FST slot write it depends on. A load sits
    //    one level past its slot's last store, so a later store to that
    //    slot (placed after the last store) never runs at a lower level
    //    than the load, and within a level loads run first. A load of a
    //    slot already loaded since its last store would read the same
    //    value: it is not scheduled, and its readers use the first
    //    load's register instead.
    for (std::size_t k = 0; k < lowered.size(); ++k) {
        const Program& program = programs_[lowered[k]];
        assert(!program.instructions.empty());
        const auto base = static_cast<std::uint32_t>(ops.size());
        for (Instruction instr : program.instructions) {
            const std::size_t id = ops.size();
            assert(instr.dst == id - base && "compiler emits SSA post-order");
            value[id] = static_cast<std::uint32_t>(id);
            std::int32_t lv = -1;
            if (instr.op == OpCode::kLoadFeature) {
                assert(instr.feature < kFeatureUniverse);
                std::int32_t& first = slot_load[instr.feature];
                if (first >= 0) {
                    value[id] = static_cast<std::uint32_t>(first);
                    ++repeated_loads;
                } else {
                    first = static_cast<std::int32_t>(id);
                    lv = last_store[instr.feature] + 1;
                }
            } else if (instr.op != OpCode::kLoadConst) {
                const int sources = SourceCount(instr.op);
                instr.src_a = value[instr.src_a + base];
                instr.src_b = value[instr.src_b + base];
                instr.src_c = value[instr.src_c + base];
                lv = level[instr.src_a];
                if (sources > 1) lv = std::max(lv, level[instr.src_b]);
                if (sources > 2) lv = std::max(lv, level[instr.src_c]);
                ++lv;
            }
            level[id] = lv;
            kind[id] = static_cast<std::uint8_t>(instr.op);
            max_level = std::max(max_level, lv);
            ops.push_back(instr);
        }
        const std::size_t id = n_instr + k;
        const std::uint32_t slot = program.output_slot;
        assert(slot < kFeatureUniverse);
        root[k] = value[ops.size() - 1];
        level[id] = std::max(level[root[k]], last_store[slot]) + 1;
        kind[id] = kStoreKind;
        last_store[slot] = level[id];
        slot_load[slot] = -1;
        max_level = std::max(max_level, level[id]);
    }

    // 2. Counting sort of the scheduled ops by (level, kind).
    const std::size_t keys =
        (static_cast<std::size_t>(max_level) + 1) * kKinds;
    std::vector<std::uint32_t> start(keys + 1, 0);
    for (std::size_t id = 0; id < n_ops; ++id) {
        if (level[id] < 0) continue;
        ++start[static_cast<std::size_t>(level[id]) * kKinds + kind[id] + 1];
    }
    for (std::size_t k = 0; k < keys; ++k) start[k + 1] += start[k];
    std::vector<std::uint32_t> order(start[keys]);
    for (std::size_t id = 0; id < n_ops; ++id) {
        if (level[id] < 0) continue;
        order[start[static_cast<std::size_t>(level[id]) * kKinds +
                    kind[id]]++] = static_cast<std::uint32_t>(id);
    }

    // 3. Registers: constants first, then every scheduled value in
    //    schedule order, so each batch writes a contiguous register run.
    //    Unscheduled loads get none.
    std::vector<std::uint32_t> reg(n_instr);
    register_image_.assign(n_instr - repeated_loads, 0.0f);
    std::uint32_t next = 0;
    for (std::size_t id = 0; id < n_instr; ++id) {
        if (ops[id].op == OpCode::kLoadConst) {
            reg[id] = next;
            register_image_[next++] = ops[id].constant;
        }
    }
    for (const std::uint32_t id : order) {
        if (id < n_instr) reg[id] = next++;
    }
    assert(next == register_image_.size());

    // 4. Batches and packed operands.
    std::int64_t current_key = -1;
    for (const std::uint32_t id : order) {
        const std::int64_t key =
            static_cast<std::int64_t>(level[id]) * kKinds + kind[id];
        if (key != current_key) {
            Batch batch;
            batch.kind = kind[id];
            batch.dst = id < n_instr ? reg[id] : 0;
            batches_.push_back(batch);
            current_key = key;
        }
        ++batches_.back().count;
        if (id >= n_instr) {
            const std::size_t k = id - n_instr;
            operands_.push_back(reg[root[k]]);
            operands_.push_back(programs_[lowered[k]].output_slot);
            continue;
        }
        const Instruction& instr = ops[id];
        if (instr.op == OpCode::kLoadFeature) {
            operands_.push_back(instr.feature);
            continue;
        }
        const int sources = SourceCount(instr.op);
        operands_.push_back(reg[instr.src_a]);
        if (sources > 1) operands_.push_back(reg[instr.src_b]);
        if (sources > 2) operands_.push_back(reg[instr.src_c]);
    }
}

std::size_t Partition::scheduled_loads() const {
    std::size_t loads = 0;
    for (const Batch& batch : batches_) {
        if (batch.kind == static_cast<std::uint8_t>(OpCode::kLoadFeature)) {
            loads += batch.count;
        }
    }
    return loads;
}

void Partition::Execute(FeatureStore& store,
                        std::vector<float>& registers) const {
    assert(registers.size() == register_image_.size());
    float* const fst = store.data();
    float* const r = registers.data();
    const std::uint32_t* o = operands_.data();
    // Each case is the scalar function Expr::Evaluate applies, on the
    // same operand values.
    for (const Batch& batch : batches_) {
        float* const d = r + batch.dst;
        const std::uint32_t n = batch.count;
        switch (static_cast<OpCode>(batch.kind)) {
          case OpCode::kLoadFeature:
            for (std::uint32_t i = 0; i < n; ++i) d[i] = fst[o[i]];
            o += n;
            break;
          case OpCode::kAdd:
            o = Binary(d, r, o, n, [](float a, float b) { return a + b; });
            break;
          case OpCode::kSub:
            o = Binary(d, r, o, n, [](float a, float b) { return a - b; });
            break;
          case OpCode::kMul:
            o = Binary(d, r, o, n, [](float a, float b) { return a * b; });
            break;
          case OpCode::kMax:
            o = Binary(d, r, o, n,
                       [](float a, float b) { return a > b ? a : b; });
            break;
          case OpCode::kMin:
            o = Binary(d, r, o, n,
                       [](float a, float b) { return a < b ? a : b; });
            break;
          case OpCode::kCmpGt:
            o = Binary(d, r, o, n,
                       [](float a, float b) { return a > b ? 1.0f : 0.0f; });
            break;
          case OpCode::kSelect:
            for (std::uint32_t i = 0; i < n; ++i, o += 3) {
                d[i] = r[o[0]] != 0.0f ? r[o[1]] : r[o[2]];
            }
            break;
          case OpCode::kDiv:
            o = Binary(d, r, o, n, [](float a, float b) {
                return b == 0.0f ? 0.0f : a / b;
            });
            break;
          case OpCode::kLn:
            o = Unary(d, r, o, n,
                      [](float a) { return std::log(a > 1e-30f ? a : 1e-30f); });
            break;
          case OpCode::kExp:
            o = Unary(d, r, o, n, [](float a) {
                return std::exp(a > 60.0f ? 60.0f : (a < -60.0f ? -60.0f : a));
            });
            break;
          case OpCode::kFloatToInt:
            o = Unary(d, r, o, n, [](float a) { return std::trunc(a); });
            break;
          case OpCode::kLoadConst:
            assert(false && "constants are preloaded, never scheduled");
            break;
          default:  // kStoreKind
            for (std::uint32_t i = 0; i < n; ++i, o += 2) fst[o[1]] = r[o[0]];
            break;
        }
    }
}

std::vector<bool> MarkLivePrograms(const std::vector<Program>& programs,
                                   std::vector<bool>& needed) {
    assert(needed.size() == kFeatureUniverse);
    std::vector<bool> live(programs.size(), false);
    for (std::size_t p = programs.size(); p-- > 0;) {
        const Program& program = programs[p];
        if (!needed[program.output_slot]) continue;
        live[p] = true;
        needed[program.output_slot] = false;
        for (const Instruction& instr : program.instructions) {
            if (instr.op == OpCode::kLoadFeature) needed[instr.feature] = true;
        }
    }
    return live;
}

}  // namespace catapult::rank::ffe
