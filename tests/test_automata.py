from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiesce.automata import (
    CallLabel,
    ServiceEffectAutomaton,
    Transition,
    advance,
    automaton_from_json,
    automaton_to_json,
    earliest_occurrence,
    reachable_calls,
)
from quiesce.errors import ProtocolViolation, ValidationError

from oracles import enumerate_earliest, enumerate_reachable

CALL_B = CallLabel("IB", "callB")
CALL_C = CallLabel("IC", "callC")


def linear(*steps: tuple[CallLabel, int]) -> ServiceEffectAutomaton:
    """q0 --l0--> q1 --l1--> ... linear automaton."""
    transitions = [
        Transition(f"q{i}", label, delay, f"q{i + 1}") for i, (label, delay) in enumerate(steps)
    ]
    states = frozenset(f"q{i}" for i in range(len(steps) + 1))
    return ServiceEffectAutomaton(states, "q0", frozenset({f"q{len(steps)}"}), tuple(transitions))


class TestAdvance:
    def test_single_transition(self):
        auto = linear((CALL_B, 0))
        cursor = advance(auto.cursor(), CALL_B)
        assert cursor.current == "q1"

    def test_absent_transition_is_a_protocol_violation(self):
        auto = linear((CALL_B, 0))
        with pytest.raises(ProtocolViolation):
            advance(auto.cursor(), CALL_C)

    def test_two_transition_loop_returns_to_start(self):
        auto = ServiceEffectAutomaton(
            frozenset({"q0", "q1"}),
            "q0",
            frozenset({"q0"}),
            (Transition("q0", CALL_B, 0, "q1"), Transition("q1", CALL_C, 0, "q0")),
        )
        cursor = advance(advance(auto.cursor(), CALL_B), CALL_C)
        assert cursor.current == "q0"

    def test_advance_keeps_cursor_valid(self):
        auto = linear((CALL_B, 1), (CALL_C, 2))
        cursor = advance(auto.cursor(), CALL_B)
        assert cursor.current in auto.states


class TestReachableCalls:
    def test_sink_state_has_no_reachable_calls(self):
        auto = linear((CALL_B, 0))
        assert reachable_calls(auto.cursor("q1")) == frozenset()

    def test_past_call_excluded(self):
        auto = linear((CALL_B, 0), (CALL_C, 0))
        after_b = advance(auto.cursor(), CALL_B)
        assert reachable_calls(after_b) == frozenset({CALL_C})

    def test_branching_includes_both(self):
        auto = ServiceEffectAutomaton(
            frozenset({"q0", "q1", "q2", "q3"}),
            "q0",
            frozenset({"q1", "q3"}),
            (
                Transition("q0", CALL_B, 0, "q1"),
                Transition("q0", CALL_C, 0, "q2"),
                Transition("q2", CALL_B, 0, "q3"),
            ),
        )
        assert reachable_calls(auto.cursor()) == frozenset({CALL_B, CALL_C})


class TestEarliestOccurrence:
    def test_immediate_transition_is_zero(self):
        auto = linear((CALL_B, 3))
        assert earliest_occurrence(auto.cursor(), CALL_B) == 0

    def test_delay_accumulates_before_the_call(self):
        auto = linear((CALL_B, 7), (CALL_C, 4))
        assert earliest_occurrence(auto.cursor(), CALL_C) == 7

    def test_past_only_label_is_unreachable(self):
        auto = linear((CALL_B, 0), (CALL_C, 0))
        after = advance(advance(auto.cursor(), CALL_B), CALL_C)
        assert earliest_occurrence(after, CALL_B) is None

    def test_cheapest_branch_wins(self):
        auto = ServiceEffectAutomaton(
            frozenset({"q0", "a", "b", "z"}),
            "q0",
            frozenset({"z"}),
            (
                Transition("q0", CALL_B, 9, "a"),
                Transition("q0", CALL_C, 1, "b"),
                Transition("a", CallLabel("IZ", "end"), 0, "z"),
                Transition("b", CallLabel("IZ", "end"), 2, "z"),
            ),
        )
        # end via b costs 1, via a costs 9
        assert earliest_occurrence(auto.cursor(), CallLabel("IZ", "end")) == 1


class TestValidation:
    def test_nondeterministic_rejected(self):
        with pytest.raises(ValidationError, match="nondeterministic"):
            ServiceEffectAutomaton(
                frozenset({"q0", "q1", "q2"}),
                "q0",
                frozenset({"q1", "q2"}),
                (Transition("q0", CALL_B, 0, "q1"), Transition("q0", CALL_B, 0, "q2")),
            )

    def test_unreachable_state_rejected(self):
        with pytest.raises(ValidationError, match="unreachable"):
            ServiceEffectAutomaton(
                frozenset({"q0", "q1"}), "q0", frozenset({"q0"}), ()
            )

    def test_state_that_cannot_finish_rejected(self):
        with pytest.raises(ValidationError, match="cannot reach"):
            ServiceEffectAutomaton(
                frozenset({"q0", "q1"}),
                "q0",
                frozenset({"q0"}),
                (Transition("q0", CALL_B, 0, "q1"),),
            )

    def test_empty_finals_rejected(self):
        with pytest.raises(ValidationError):
            ServiceEffectAutomaton(frozenset({"q0"}), "q0", frozenset(), ())

    def test_negative_delay_rejected(self):
        with pytest.raises(ValidationError):
            ServiceEffectAutomaton(
                frozenset({"q0", "q1"}),
                "q0",
                frozenset({"q1"}),
                (Transition("q0", CALL_B, -1, "q1"),),
            )


def test_json_round_trip():
    auto = linear((CALL_B, 2), (CALL_C, 0))
    assert automaton_from_json(automaton_to_json(auto)) == auto


# ---------------------------------------------------------------------------
# Random automata (always valid by construction: a spine path makes every
# state reachable, the spine end makes every state co-reachable).
# ---------------------------------------------------------------------------

_LABELS = [CallLabel("IB", "callB"), CallLabel("IC", "callC"), CallLabel("ID", "callD")]


@st.composite
def automata(draw, max_states: int = 8, max_extra: int = 6):
    n = draw(st.integers(min_value=1, max_value=max_states))
    states = [f"q{i}" for i in range(n)]
    transitions: dict[tuple[str, CallLabel], Transition] = {}
    for i in range(n - 1):
        label = draw(st.sampled_from(_LABELS))
        delay = draw(st.integers(min_value=0, max_value=5))
        transitions[(states[i], label)] = Transition(states[i], label, delay, states[i + 1])
    extra = draw(st.integers(min_value=0, max_value=max_extra))
    for _ in range(extra):
        source = draw(st.sampled_from(states))
        label = draw(st.sampled_from(_LABELS))
        if (source, label) in transitions:
            continue
        target = draw(st.sampled_from(states))
        delay = draw(st.integers(min_value=0, max_value=5))
        candidate = dict(transitions)
        candidate[(source, label)] = Transition(source, label, delay, target)
        try:
            ServiceEffectAutomaton(
                frozenset(states),
                states[0],
                frozenset({states[-1]}),
                tuple(candidate.values()),
            )
        except ValidationError:
            continue  # the extra edge broke co-reachability; skip it
        transitions = candidate
    finals = {states[-1]} | set(draw(st.lists(st.sampled_from(states), max_size=2)))
    return ServiceEffectAutomaton(
        frozenset(states), states[0], frozenset(finals), tuple(transitions.values())
    )


@settings(max_examples=150, deadline=None)
@given(automata(), st.data())
def test_reachable_agrees_with_earliest(auto: ServiceEffectAutomaton, data):
    state = data.draw(st.sampled_from(sorted(auto.states)))
    cursor = auto.cursor(state)
    reachable = reachable_calls(cursor)
    for label in _LABELS:
        if label in reachable:
            assert earliest_occurrence(cursor, label) is not None
        else:
            assert earliest_occurrence(cursor, label) is None


@settings(max_examples=150, deadline=None)
@given(automata(max_states=6, max_extra=4), st.data())
def test_earliest_matches_path_enumeration_oracle(auto: ServiceEffectAutomaton, data):
    state = data.draw(st.sampled_from(sorted(auto.states)))
    cursor = auto.cursor(state)
    for label in _LABELS:
        assert earliest_occurrence(cursor, label) == enumerate_earliest(cursor, label)


@settings(max_examples=100, deadline=None)
@given(automata(max_states=6, max_extra=4), st.data())
def test_reachable_matches_enumeration_oracle(auto: ServiceEffectAutomaton, data):
    state = data.draw(st.sampled_from(sorted(auto.states)))
    cursor = auto.cursor(state)
    assert reachable_calls(cursor) == enumerate_reachable(cursor)


@settings(max_examples=100, deadline=None)
@given(automata(max_states=6, max_extra=4))
def test_earliest_tables_list_reachable_labels_in_order(auto: ServiceEffectAutomaton):
    assert auto.labels == tuple(sorted({t.label for t in auto.transitions}))
    for state in sorted(auto.states):
        expected = []
        for label in sorted(_LABELS):
            e = enumerate_earliest(auto.cursor(state), label)
            if e is not None:
                expected.append((label, e))
        assert auto.earliest_table(state) == tuple(expected)
        assert auto.earliest_table(state) is auto.earliest_table(state)  # computed once per state
