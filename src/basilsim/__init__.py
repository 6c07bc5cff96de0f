"""Deterministic simulator and analysis toolkit for Byzantine-resilient
decentralized training over logical rings."""
