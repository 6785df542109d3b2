"""Exact outputs the benchmark checks every run against.

Independent references come from the literature or closed forms; the
report digests were recorded from the library at commit 9fa563b, the parent
of the benchmark (sha256 of the report body of `subtree-density verify
--format json`, or of the `stats --format json` document).
"""

from __future__ import annotations

# OEIS A000055: free trees on n vertices up to isomorphism.
FREE_TREES = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47,
              10: 106, 11: 235, 12: 551, 13: 1301, 14: 3159}

# OEIS A000014: series-reduced trees (no vertex of degree 2), n >= 4.
SERIES_REDUCED = {4: 1, 5: 1, 6: 2, 7: 2, 8: 4, 9: 5, 10: 10, 11: 14,
                  12: 26, 13: 42, 14: 78}

# C4 (mu <= mu') holds with equality only for the path P4.
C4_EQUALITY_FORMS = [[0, 1, 2, 1]]

# C12's strict 1/2 < D fails on exactly one series-reduced tree: the
# six-vertex double star, with D = 1/2.  That witness is expected output.
C12_EXPECTED_VIOLATIONS = [{"n": 6, "canonical_form": [0, 1, 2, 2, 1, 1], "density": "1/2"}]


def path_totals(n: int):
    """(subtree count, order sum) of the path on n vertices."""
    return n * (n + 1) // 2, n * (n + 1) * (n + 2) // 6


def star_totals(m: int):
    """(subtree count, order sum) of the star with m leaves."""
    return 2 ** m + m, 2 ** m + m * 2 ** (m - 1) + m


# sha256 of the report body; for sample-rooted only at DEFAULT_SEED.
DEFAULT_SEED = 0
REPORT_DIGESTS = {
    "enum-sr": "1f48091e4fb78765a53d464807134e37e35a07d66cf77bc0b703713d8de1248a",
    "enum-all": "6416eee3c58b6eea3da19dc8cc13728f51c0e7694d65994fcf0faf638d7178e1",
    "sample-rooted": "7495b7ccdfcb2f7afa573c6b3de7e5fecceb61a67c37c42ac056dc1380073755",
}

# sha256 of `json.dumps(stats.to_json_dict(), sort_keys=True, indent=2)`.
STATS_DIGESTS = {
    "path": "28ae0253452d0f640c636b366fb2572c7d48797f70b66f596b38f6cab139642f",
    "star": "528db9035fe5b411edbd2f7d5d4d44dbc7faa2b0dc669678eeda9fab7641a593",
    "star_chain": "9b3b3713c5d390a7a1bc6b0b1919b029cc8646cc4d40623e1ba128a68fb34263",
    "broom": "ad870c11f5d38e4b1e3eb8d6419a6df3eb76e5f96df30009ac8a921ce3732b67",
    "starfish": "f77ffc45cf202bb096a637f1571fe40f238b60fc96049531377497eb73682718",
}
