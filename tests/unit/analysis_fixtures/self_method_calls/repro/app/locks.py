"""Fixture: two locks acquired in opposite orders across a call chain."""

import threading


class Pair:
    def __init__(self):
        self._a = threading.Lock()
        self._b = threading.Lock()

    def forward(self):
        # a -> b, with the second acquisition one call away.
        with self._a:
            self._grab_b()

    def _grab_b(self):
        with self._b:
            pass

    def backward(self):
        # b -> a, nested directly: closes the cycle.
        with self._b:
            with self._a:
                pass
