SELECT Student FROM sc WHERE Course = 'c1'
