"""Result analysis: FCT buckets, delay tails, fairness indices, CDF helpers."""
