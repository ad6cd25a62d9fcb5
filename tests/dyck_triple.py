"""Print a large NCN triple for the CI's round-trip steps.

A seeded random Dyck word with N pairs by the cycle lemma, its noncrossing
matching as a sorted pair list, and the nested pair at INDEX (from 1) in
``nep`` order (pairs by second label, then first), found with a stack of the
open labels. Standard library only, so the input does not come from the code
it tests.

Usage: python tests/dyck_triple.py N INDEX > triple.txt
"""

import random
import sys


def main(n: int, index: int) -> None:
    steps = [1] * n + [-1] * (n + 1)
    random.Random(1).shuffle(steps)
    height = low = start = 0
    for i, step in enumerate(steps, 1):
        height += step
        if height < low:
            low, start = height, i
    word = (steps[start:] + steps[:start])[:-1]
    pairs, opened, labels, b, pair = [], [], [], 0, None
    for v, step in enumerate(word):
        if step > 0:
            b += 1
            if pair is None and index <= len(labels):
                pair = (labels[index - 1], b)
            index -= len(labels)
            labels.append(b)
            opened.append(v)
        else:
            labels.pop()
            pairs.append((opened.pop(), v))
    pairs.sort()
    sys.stdout.write(f"{n}\n" + "".join(f"{l} {r}\n" for l, r in pairs)
                     + "nesting %d %d\n" % pair)


if __name__ == "__main__":
    main(*map(int, sys.argv[1:]))
