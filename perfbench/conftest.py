"""Lets the benchmark's tests import its modules and the engine under test:
``python3 -m pytest perfbench -q`` from the repository root."""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.dirname(HERE)]
