"""Structured pass/fail reporting for the verifiers."""

from __future__ import annotations


PASS = "pass"
FAIL = "fail"
SKIP = "hypothesis-not-met"


class Check:
    """One verified statement: an id, a human-readable statement of what was
    checked, a status, and the two sides that were compared (JSON-able)."""

    __slots__ = ("id", "statement", "status", "lhs", "rhs")

    def __init__(self, check_id, statement, status, lhs=None, rhs=None):
        if status not in (PASS, FAIL, SKIP):
            raise ValueError("bad status %r" % status)
        self.id = check_id
        self.statement = statement
        self.status = status
        self.lhs = lhs
        self.rhs = rhs

    def to_json(self):
        out = {"id": self.id, "statement": self.statement, "status": self.status}
        if self.lhs is not None:
            out["lhs"] = self.lhs
        if self.rhs is not None:
            out["rhs"] = self.rhs
        return out

    def __repr__(self):
        return "<check %s: %s>" % (self.id, self.status)


class Report:
    __slots__ = ("command", "checks")

    def __init__(self, command):
        self.command = command
        self.checks = []

    def add(self, check_id, statement, ok, lhs=None, rhs=None):
        self.checks.append(Check(check_id, statement, PASS if ok else FAIL, lhs, rhs))

    def add_skip(self, check_id, statement, lhs=None, rhs=None):
        self.checks.append(Check(check_id, statement, SKIP, lhs, rhs))

    @property
    def ok(self):
        return all(c.status != FAIL for c in self.checks)

    @property
    def failures(self):
        return [c for c in self.checks if c.status == FAIL]

    def merge(self, other):
        self.checks.extend(other.checks)
        return self

    def to_json(self):
        return {
            "command": self.command,
            "checks": [c.to_json() for c in self.checks],
            "status": "pass" if self.ok else "fail",
        }
