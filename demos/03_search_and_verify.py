"""
Finding codebooks and proving them right
========================================

Syndrome codes exist for every parameter choice; the pigeonhole search
counts every residue bucket by dynamic programming over positions and
keeps the biggest.  Verification then replays every corruption
exhaustively and emits JSON reports, and a seeded simulator replays
random ones reproducibly.
"""

from burstcodes import (
    c31_decode,
    c31_param_search,
    pigeonhole_search,
    simulate,
    verify_disjoint,
    verify_roundtrip,
)

# best (2,1)-burst codebook at n=8: 60 syndrome buckets for 256 words,
# so some bucket holds at least ceil(256/60) = 5 codewords
params, book = pigeonhole_search("c21", 8)
print(f"c21 n=8: params {params}, {book.size} codewords, "
      f"redundancy {book.redundancy:.4f}")
for w in book.members:
    print(" ", w)

# the (3,1) code pins four congruences at once: run syndrome mod 4n,
# odd and even weight mod 4, run count mod 5
params31, book31 = c31_param_search(12)
print(f"\nc31 n=12: {book31.size} codewords, "
      f"redundancy {book31.redundancy:.4f}")

# exhaustive proof, not sampling: every codeword, every burst
rep = verify_disjoint(book31.members, 3, 1)
print("disjoint:", rep.to_json())
rep = verify_roundtrip(book31.members, 3, 1, lambda y: c31_decode(y, params31))
print("roundtrip:", rep.to_json())

# the simulator replays the same trials for the same seed, bit for bit
res = simulate("c31", 12, trials=2000, seed=7)
print(f"\nsimulate seed=7: {res.successes}/{res.trials} decoded")
again = simulate("c31", 12, trials=2000, seed=7)
assert res.to_dict() == again.to_dict()
print("rerun identical:", res.to_dict() == again.to_dict())
