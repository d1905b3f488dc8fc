import os
import sys

PERF_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if PERF_DIR not in sys.path:
    sys.path.insert(0, PERF_DIR)
