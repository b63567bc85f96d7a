"""Fixed pure-Python reference job that does not touch schubdeform.

The benchmark runs it between every two set-ups and passes.  Its time tracks
how fast the host runs Python at that moment, so job times are scaled by
REF_S / (its time) to the speed of a nominal host.  Never change this code:
that would change the scale of every result.
"""
from fractions import Fraction

acc = Fraction(0)
table: dict = {}
for i in range(1, 25000):
    acc += Fraction(i % 97, (i % 89) + 1)
    table[(i % 1000, i % 7)] = table.get((i % 1000, i % 7), 0) + i
print(acc.denominator % 1000, len(table))
