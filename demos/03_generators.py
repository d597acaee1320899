"""Ingredient samplers: parity construction and envelope-dominated heavy draws."""

import numpy as np

from slln_lab import Channel, DependenceMode, StreamKey, TailEnvelope, XFamily, derive_stream
from slln_lab.generators import draw_heavy, reciprocal_exponents

# --- pairwise independent, not mutually independent --------------------------
fam = XFamily.parity(block_bits=2)
stream = derive_stream(StreamKey(7, 0, Channel.X))
blocks = fam.sample_block(3 * 10 ** 5, stream).reshape(-1, 3)
print("parity blocks (s1, s2, s1*s2); 1e5 of them")
for i, j in [(0, 1), (0, 2), (1, 2)]:
    both_pos = np.mean((blocks[:, i] > 0) & (blocks[:, j] > 0))
    print(f"  P(X{i + 1}=+1, X{j + 1}=+1) = {both_pos:.4f}  (pairwise independence: 0.25)")
impossible = np.mean((blocks[:, 0] > 0) & (blocks[:, 1] > 0) & (blocks[:, 2] < 0))
print(f"  P(X1=+1, X2=+1, X3=-1) = {impossible}  (exactly 0: X3 is the product)")

# --- heavy draws under a tail envelope ---------------------------------------
env = TailEnvelope.pareto(2.0)
ystream = derive_stream(StreamKey(7, 0, Channel.Y))
v = env.sample_v(ystream.uniforms(10 ** 5))
for t in (1.0, 2.0, 5.0):
    print(f"empirical P(v > {t}) = {np.mean(v > t):.5f}  envelope {env.survival(t):.5f}")

y_mild = draw_heavy(env, DependenceMode.INDEPENDENT, reciprocal_exponents(np.full(10 ** 4, 0.9)),
                    np.empty(10 ** 4), stream=ystream)
y_wild = draw_heavy(env, DependenceMode.INDEPENDENT, reciprocal_exponents(np.full(10 ** 4, 0.3)),
                    np.empty(10 ** 4), stream=ystream)
print(f"exponent 0.9: max draw {y_mild.max():.3g} (mean still finite)")
print(f"exponent 0.3: max draw {y_wild.max():.3g} (mean infinite: tail index {2 * 0.3:.2f})")

shared = 0.75
comonotone = draw_heavy(env, DependenceMode.COMONOTONE, reciprocal_exponents([1.0, 0.5, 0.25]), np.empty(3),
                        shared_u=shared)
print("comonotone draws from one uniform:", [round(y, 4) for y in comonotone.tolist()])
