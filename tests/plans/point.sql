SELECT Course FROM sc WHERE Student = 's1'
