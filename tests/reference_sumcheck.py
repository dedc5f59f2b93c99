"""The paper's sum-check provers, written out once more: the test oracle.

F2, Fk, INNER-PRODUCT and RANGE-SUM as Sections 3.1 and 3.2 state them,
sharing nothing with the library but the field.  Tables are lists of
Python ints, folded as in Appendix B.1,

    A'[t] = (1 - r)·A[2t] + r·A[2t + 1],

and every round polynomial is evaluated directly at c = 0 .. deg from
the pair lines ``line_t(c) = (1 - c)·A[2t] + c·A[2t + 1]``:

    F2, Fk             g(c) = Σ_t line_t(c)^k              (F2: k = 2)
    INNER-PRODUCT      g(c) = Σ_t lineA_t(c) · lineB_t(c)
    RANGE-SUM          the same, b the dense indicator of [lo, hi]

No moment weights, no dyadic cover, no compact tables, no backends:
whatever the engine does to be fast, it must send these words.

:class:`ReferenceProver` speaks the batch interface (``receive_batch`` /
``round_messages`` / ``receive_challenge``), so the library's drivers run
it like any prover; it reads a batch member's ``name`` and ``params``
only.
"""

from __future__ import annotations

from repro.field.modular import PrimeField


class ReferenceProver:
    """Both frequency vectors, dense; one table per vector and range."""

    def __init__(self, field: PrimeField, u: int, updates_a=(),
                 updates_b=()):
        self.field = field
        self.u = u
        self.size = 2
        while self.size < u:
            self.size *= 2
        self.d = self.size.bit_length() - 1
        self.freq_a = [0] * self.size
        self.freq_b = [0] * self.size
        for i, delta in updates_a:
            self.freq_a[i] += delta
        for i, delta in updates_b:
            self.freq_b[i] += delta
        self._tables = None
        self._factors = None

    def receive_batch(self, queries) -> None:
        """Each member's summand as the tables whose lines it multiplies."""
        p = self.field.p
        self._tables = {"a": [v % p for v in self.freq_a],
                        "b": [v % p for v in self.freq_b]}
        self._factors = []
        for q in queries:
            if q.name == "f2":
                self._factors.append(["a", "a"])
            elif q.name == "fk":
                self._factors.append(["a"] * q.params[0])
            elif q.name == "inner-product":
                self._factors.append(["a", "b"])
            else:
                lo, hi = q.params
                self._tables[lo, hi] = [int(lo <= i <= hi)
                                        for i in range(self.size)]
                self._factors.append(["a", (lo, hi)])

    def round_messages(self):
        """Per member ``[g(0), ..., g(deg)]``, deg = its number of factors:
        at each c, the factors' lines multiplied pair by pair and summed."""
        p = self.field.p
        lines = {}

        def line(name, c):
            if (name, c) not in lines:
                table = self._tables[name]
                lines[name, c] = [((1 - c) * even + c * odd) % p
                                  for even, odd in zip(table[0::2],
                                                       table[1::2])]
            return lines[name, c]

        messages = []
        for factors in self._factors:
            message = []
            for c in range(len(factors) + 1):
                terms = line(factors[0], c)
                for name in factors[1:]:
                    terms = [x * y % p for x, y in zip(terms, line(name, c))]
                message.append(sum(terms) % p)
            messages.append(message)
        return messages

    def receive_challenge(self, r: int) -> None:
        p = self.field.p
        self._tables = {
            name: [((1 - r) * even + r * odd) % p
                   for even, odd in zip(table[0::2], table[1::2])]
            for name, table in self._tables.items()
        }
