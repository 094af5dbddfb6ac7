#pragma once

// Executable versions of the safety proof's invariants (Lemmas 6.1-6.24 and
// Corollaries 6.19/6.23/6.24). Each lemma is one checker over the global
// state of VStoTO-system; check_all_invariants runs every one and returns
// human-readable violations (empty = all invariants hold in this state).
//
// Notes on fidelity:
//  - Lemma 6.8 (status = send) is vacuous here: our executor sends the
//    state-exchange summary atomically inside the newview transition, so no
//    observable state has status = send.
//  - Lemma 6.18 and Corollary 6.19 quantify over all prefixes sigma; we
//    check the strongest instance (the longest common prefix of the
//    established members' buildorders), which implies every weaker one.

#include <string>
#include <vector>

#include "verify/derived.hpp"

namespace vsg::verify {

std::vector<std::string> check_lemma_6_1(const GlobalState& s);
std::vector<std::string> check_lemma_6_2(const GlobalState& s);
std::vector<std::string> check_lemma_6_3(const GlobalState& s);
std::vector<std::string> check_lemma_6_4(const GlobalState& s);
std::vector<std::string> check_lemma_6_5(const GlobalState& s);
std::vector<std::string> check_lemma_6_6(const GlobalState& s);
std::vector<std::string> check_lemma_6_7(const GlobalState& s);
std::vector<std::string> check_lemma_6_9(const GlobalState& s);
std::vector<std::string> check_lemma_6_10(const GlobalState& s);
std::vector<std::string> check_lemma_6_11(const GlobalState& s);
std::vector<std::string> check_lemma_6_12(const GlobalState& s);
std::vector<std::string> check_lemma_6_13(const GlobalState& s);
std::vector<std::string> check_lemma_6_14(const GlobalState& s);
std::vector<std::string> check_lemma_6_15(const GlobalState& s);
std::vector<std::string> check_lemma_6_16(const GlobalState& s);
std::vector<std::string> check_lemma_6_17(const GlobalState& s);
std::vector<std::string> check_corollary_6_19(const GlobalState& s);
std::vector<std::string> check_lemma_6_20(const GlobalState& s);
std::vector<std::string> check_lemma_6_21(const GlobalState& s);
std::vector<std::string> check_lemma_6_22(const GlobalState& s);
std::vector<std::string> check_corollary_6_23(const GlobalState& s);
std::vector<std::string> check_corollary_6_24(const GlobalState& s);

/// Audit of the proof's history variables themselves: buildorder[p, g]
/// tracks order_p while p is in view g, represented by order_p itself (so an
/// established current view must have builds_current set and no stored
/// copy), and the stored snapshots never name a view beyond the current one.
/// It also audits the snapshot chain: a snapshot's base must be the stored
/// snapshot of an earlier view of the same process, and it may keep no more
/// labels than that base holds (none without a base).
std::vector<std::string> check_history_wellformed(const GlobalState& s);

/// Run every invariant checker.
std::vector<std::string> check_all_invariants(const GlobalState& s);

}  // namespace vsg::verify
