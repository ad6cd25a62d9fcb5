"""The benchmark's inputs and references, against matchbij as a cross-check.

    python3 -m unittest discover -s perfbench/tests
"""

import io
import random
import subprocess
import sys
import unittest
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gen  # noqa: E402
import run  # noqa: E402
from matchbij import (emit_ncn, emit_pairs, from_pairs, ncn_elements, nep, phi,  # noqa: E402
                      phi_inv, render_text, stats, tau)
from matchbij.bijections import NCNTriple  # noqa: E402
from matchbij.cli import run as cli_run  # noqa: E402


def matching(pairs):
    return from_pairs(pairs, len(pairs))


def random_triples(seed, sizes):
    rng = random.Random(seed)
    return [gen.random_triple(rng, n) for n in sizes]


class DyckWords(unittest.TestCase):
    def test_words_are_balanced_and_never_dip(self):
        rng = random.Random(7)
        for n in (1, 2, 5, 40):
            for _ in range(50):
                word = gen.random_dyck_word(rng, n)
                depths = [word[:i + 1].count("L") - word[:i + 1].count("R")
                          for i in range(len(word))]
                self.assertEqual(len(word), 2 * n)
                self.assertEqual(depths[-1], 0)
                self.assertGreaterEqual(min(depths), 0)

    def test_every_word_of_size_three_is_drawn_about_equally(self):
        rng = random.Random(3)
        counts = {}
        for _ in range(5000):
            word = gen.random_dyck_word(rng, 3)
            counts[word] = counts.get(word, 0) + 1
        self.assertEqual(len(counts), 5)  # Catalan(3)
        self.assertTrue(all(800 < c < 1200 for c in counts.values()), counts)

    def test_same_seed_same_inputs(self):
        texts = lambda seed: [j.stdin for j in run.large_inputs(seed).jobs]  # noqa: E731
        self.assertEqual(texts(11), texts(11))
        self.assertNotEqual(texts(11), texts(12))

    def test_generator_never_imports_matchbij(self):
        code = ("import random, sys, gen; gen.recross(*gen.random_triple(random.Random(1), 30)); "
                "sys.exit(any(m.startswith('matchbij') for m in sys.modules))")
        self.assertEqual(subprocess.run([sys.executable, "-c", code], cwd=HERE).returncode, 0)


class ReferencesAgreeWithMatchbij(unittest.TestCase):
    def triples(self):
        """Every triple at n = 5, then random ones up to n = 120."""
        for t in ncn_elements(5):
            yield list(t.base.pairs()), t.pair
        yield from random_triples(5, (2, 10, 60, 120))
        yield gen.ladder(20), (19, 20)

    def test_nested_pairs(self):
        for base, _ in self.triples():
            self.assertEqual(gen.nested_pairs(base), nep(matching(base)))

    def test_recross_is_phi_inverse(self):
        for base, chosen in self.triples():
            triple = NCNTriple(matching(base), chosen)
            lp = matching(gen.recross(base, chosen))
            self.assertEqual(lp, phi_inv(triple))
            self.assertEqual(phi(lp), triple)

    def test_swap_representative_is_tau(self):
        for base, chosen in self.triples():
            self.assertEqual(matching(gen.swap_representative(base, chosen)),
                             tau(NCNTriple(matching(base), chosen)))

    def test_counts_and_rows(self):
        for base, chosen in self.triples():
            lp = gen.recross(base, chosen)
            self.assertEqual(gen.ne_cr(lp), tuple(stats(matching(lp))))
            self.assertEqual(gen.arc_rows(lp), render_text(matching(lp)).count("\n"))

    def test_texts_match_the_cli(self):
        for base, chosen in random_triples(9, (1, 8, 50)):
            lp = gen.recross(base, chosen)
            self.assertEqual(gen.pairs_text(lp), emit_pairs(matching(lp)))
            self.assertEqual(gen.ncn_text(base, chosen), emit_ncn(NCNTriple(matching(base), chosen)))
            out = io.StringIO()
            sys.stdin, saved = io.StringIO(gen.pairs_text(lp)), sys.stdin
            try:
                with redirect_stdout(out):
                    self.assertEqual(cli_run(["classify"]), 0)
            finally:
                sys.stdin = saved
            self.assertEqual(out.getvalue(), gen.classify_text(lp))


if __name__ == "__main__":
    unittest.main()
