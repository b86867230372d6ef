"""The ``rows_digest`` contract ``benchmarks/perf/golden.json`` relies on."""

from repro.bench import rows_digest


class TestRowsDigest:
    def test_stable_across_calls(self):
        rows = [{"a": 1.5, "b": "x"}, {"a": 2.5, "b": "y"}]
        digest = rows_digest(rows)
        assert digest == rows_digest(list(rows))
        assert len(digest) == 16 and set(digest) <= set("0123456789abcdef")
        assert rows_digest([]) == rows_digest(()) == "4f53cda18c2baa0c"

    def test_sensitive_to_float_changes(self):
        base = [{"value": 0.1}]
        same_bits = [{"value": 0.1 + 1e-18}]  # rounds back to the same double
        one_ulp_off = [{"value": 0.1 + 2e-17}]  # the neighbouring double
        assert rows_digest(base) == rows_digest(same_bits)
        assert one_ulp_off[0]["value"] != base[0]["value"]
        assert rows_digest(base) != rows_digest(one_ulp_off)

    def test_sensitive_to_row_order(self):
        rows = [{"a": 1}, {"a": 2}]
        assert rows_digest(rows) != rows_digest(rows[::-1])

    def test_insensitive_to_key_order(self):
        assert rows_digest([{"a": 1, "b": 2}]) == rows_digest([{"b": 2, "a": 1}])
