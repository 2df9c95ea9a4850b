struct Model { void predict_dist_span(int, int*) const; };
int score_all(const Model& m, int n) {
  int scratch = 0;
  for (int i = 0; i < n; ++i) m.predict_dist_span(i, &scratch);
  return scratch;
}
