"""Rewrite perfbench/reference.json with brute-force answers for the corpus.

Run from the repository root (takes about a minute):

    python3 perfbench/make_reference.py
"""

import checkout

if __name__ == "__main__":
    checkout.use_sources()
    import workloads

    data = workloads.write_reference()
    print("wrote %d answers to %s" % (len(data["answers"]), workloads.REFERENCE_PATH))
